package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/arith"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/tctree"
)

// TCS2: the compact, mmap-able circuit envelope.
//
// The paper's constructions stamp the same gate pattern at every block
// position, so across millions of gate groups the *relative* wire
// pattern of a span (ids minus the first id) and the weight vector
// repeat massively; thresholds repeat as whole per-group sequences. A
// TCS2 file therefore stores three deduplicated dictionaries as raw
// little-endian arenas — which an mmap-backed load aliases in place,
// no decode of the hot arrays — plus a few bytes of varint-encoded
// references per group.
//
// Layout:
//
//	header:
//	  magic "TCS2" | u32 version (=2) | u32 keyLen | shape key
//	  counts block, 12 u64: numInputs numGates numGroups numOutputs
//	    storedEdges depth weightWords threshPatWords wirePatWords
//	    numWeightSpans numThreshPats numWirePats
//	  u32 numSegments | u32 metaLen | BuiltMeta (appendMeta layout)
//	  dictionary length tables (uvarint per entry, three tables)
//	  segment directory: per segment u8 kind | u8 level | u16 0 |
//	    u32 count | u64 byteLen
//	  zero padding to an 8-byte boundary (nonzero padding is rejected)
//	payload (8-aligned regions, in kind order):
//	  weight arena (i64) | threshold-pattern arena (i64) |
//	  wire-pattern arena (i32, relative ids) |
//	  spine (one level byte per group, creation order) |
//	  per-level group streams (varint records) | outputs (zigzag deltas)
//	footer:
//	  per-segment CRC-32C table | SHA-256 root over header‖table |
//	  u64 headerLen | u64 payloadLen | u32 numSegments | u32 0 | "2SCT"
//
// A group record, inside its level's stream, is four varints: wire
// pattern id, weight span id, threshold pattern id, and the zigzag
// delta of the group's wire base (the absolute id of its first input)
// against the previous record in the same segment — the first record
// of a segment stores the absolute base, so every segment decodes
// independently. Span length, gate count and level are all implied
// (pattern lengths, threshold pattern length, stream identity), which
// is what gets the per-group cost to ~6 bytes.
//
// Integrity is a two-level digest tree (the content address
// authenticates *which* artifact; checksums catch bit rot at disk
// bandwidth): CRC-32C leaves over every payload segment — independently checkable, so incremental verifiers
// can audit a page range without touching the rest — rolled into one
// SHA-256 root over the header and the leaf table. Any flipped bit in
// any segment changes its leaf; any tampered leaf or header byte
// changes the root. The whole-file pass runs at hardware CRC speed
// (~10 GB/s), not hash speed, which is what keeps the mapped load
// inside its 20x-over-build budget.

const (
	tcs2Magic     = "TCS2"
	tcs2TailMagic = "2SCT"

	// FormatVersionTCS2 is the envelope version, bumped on any
	// incompatible layout change. It is part of both the header and the
	// cache fingerprint, so a version bump simply misses the old files
	// instead of misreading them.
	FormatVersionTCS2 = 2

	// maxDepthTCS2 bounds the spine's level byte. The paper's circuits
	// are constant-depth (<= 10); anything deeper than 255 is not a
	// threshold circuit this reproduction can produce.
	maxDepthTCS2 = 255

	// arenaChunk / streamChunk size the integrity segments: small enough
	// that a damaged region is localized to one leaf, large enough that
	// the directory stays a few dozen rows at N=16.
	arenaChunk  = 4 << 20
	streamChunk = 1 << 20

	tcs2CountsLen = 12 * 8
	tcs2DirRowLen = 16
	tcs2TailLen   = 32 + 8 + 8 + 4 + 4 + 4 // root | headerLen | payloadLen | segs | 0 | magic

	segKindWeights   = 1
	segKindThreshPat = 2
	segKindWirePat   = 3
	segKindSpine     = 4
	segKindGroups    = 5
	segKindOutputs   = 6

	// maxExpandFactor caps decode-side allocation relative to file size:
	// dictionary compression is quadratic in the adversarial limit (a
	// tiny file can legally reference a huge pattern from every group),
	// so gate expansion is bounded at 64 elements per envelope byte —
	// two orders of magnitude above the measured legitimate ratio
	// (~0.07 gates/byte at N=16) — before any allocation happens.
	maxExpandFactor = 64
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

type tcs2Segment struct {
	kind  byte
	level byte
	count uint32
	size  int64
}

// zigzag/unzigzag map signed deltas onto uvarints.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// EncodeTCS2 serializes a Built into the TCS2 envelope. Encoding is
// deterministic — dictionaries are interned in first-use order over the
// creation-order group walk — so concurrent writers of the same shape
// produce identical bytes, preserving the cache's idempotent-writer
// contract.
func EncodeTCS2(b *core.Built) ([]byte, error) {
	c := b.Circuit()
	if c.Depth() > maxDepthTCS2 {
		return nil, fmt.Errorf("store: tcs2 encodes depth <= %d, circuit has %d", maxDepthTCS2, c.Depth())
	}
	key := b.Shape.Key()
	meta := appendMeta(nil, b.Meta())

	// Pass 1: intern dictionaries, collect per-group references.
	type ref struct {
		wp, ws, tp uint32
		base       int32
		level      uint8
	}
	var (
		weightArena []int64
		wsLens      []uint32
		wsIdx       = map[string]uint32{}
		threshArena []int64
		tpLens      []uint32
		tpIdx       = map[string]uint32{}
		wireArena   []int32
		wpLens      []uint32
		wpIdx       = map[string]uint32{}
		refs        = make([]ref, 0, 1024)
		relBuf      []int32
	)
	internI64 := func(idx map[string]uint32, vs []int64, arena *[]int64, lens *[]uint32) uint32 {
		k := string(i64Bytes(vs))
		if id, ok := idx[k]; ok {
			return id
		}
		id := uint32(len(*lens))
		idx[k] = id
		*arena = append(*arena, vs...)
		*lens = append(*lens, uint32(len(vs)))
		return id
	}
	c.VisitGroups(func(gv circuit.GroupView) {
		if cap(relBuf) < len(gv.RawWires) {
			relBuf = make([]int32, len(gv.RawWires))
		}
		rel := relBuf[:len(gv.RawWires)]
		var base int32
		if len(gv.RawWires) > 0 {
			base = int32(gv.WireBase) + int32(gv.RawWires[0])
			for i, w := range gv.RawWires {
				rel[i] = int32(gv.WireBase) + int32(w) - base
			}
		}
		var wp uint32
		if k := string(i32Bytes(rel)); true {
			var ok bool
			if wp, ok = wpIdx[k]; !ok {
				wp = uint32(len(wpLens))
				wpIdx[k] = wp
				wireArena = append(wireArena, rel...)
				wpLens = append(wpLens, uint32(len(rel)))
			}
		}
		ws := internI64(wsIdx, gv.Weights, &weightArena, &wsLens)
		tp := internI64(tpIdx, gv.Thresholds, &threshArena, &tpLens)
		refs = append(refs, ref{wp: wp, ws: ws, tp: tp, base: base, level: uint8(gv.Level)})
	})

	// Pass 2: spine + per-level record streams, cut into segments at
	// record boundaries so each decodes (and verifies) independently.
	depth := c.Depth()
	spine := make([]byte, len(refs))
	streams := make([][]byte, depth+1)
	segStart := make([]int, depth+1) // current segment's byte offset
	segCount := make([]uint32, depth+1)
	prevBase := make([]int32, depth+1)
	type lvlSeg struct {
		level byte
		count uint32
		size  int64
	}
	lvlSegs := make([][]lvlSeg, depth+1)
	cut := func(lvl int) {
		if segCount[lvl] == 0 {
			return
		}
		lvlSegs[lvl] = append(lvlSegs[lvl], lvlSeg{
			level: byte(lvl),
			count: segCount[lvl],
			size:  int64(len(streams[lvl]) - segStart[lvl]),
		})
		segStart[lvl] = len(streams[lvl])
		segCount[lvl] = 0
	}
	for gi, r := range refs {
		spine[gi] = r.level
		lvl := int(r.level)
		s := streams[lvl]
		s = binary.AppendUvarint(s, uint64(r.wp))
		s = binary.AppendUvarint(s, uint64(r.ws))
		s = binary.AppendUvarint(s, uint64(r.tp))
		if segCount[lvl] == 0 {
			s = binary.AppendUvarint(s, zigzag(int64(r.base))) // absolute at segment start
		} else {
			s = binary.AppendUvarint(s, zigzag(int64(r.base)-int64(prevBase[lvl])))
		}
		prevBase[lvl] = r.base
		streams[lvl] = s
		segCount[lvl]++
		if len(s)-segStart[lvl] >= streamChunk {
			cut(lvl)
		}
	}
	for lvl := 1; lvl <= depth; lvl++ {
		cut(lvl)
	}

	var outStream []byte
	{
		var prev int64
		for _, o := range c.Outputs() {
			outStream = binary.AppendUvarint(outStream, zigzag(int64(o)-prev))
			prev = int64(o)
		}
	}

	// Directory: arena regions chunked for hash granularity, then the
	// byte-exact stream segments.
	var segs []tcs2Segment
	chunkArena := func(kind byte, totalBytes, elemSize int64) {
		for off := int64(0); off < totalBytes; {
			n := totalBytes - off
			if n > arenaChunk {
				n = arenaChunk
			}
			segs = append(segs, tcs2Segment{kind: kind, count: uint32(n / elemSize), size: n})
			off += n
		}
	}
	chunkArena(segKindWeights, int64(len(weightArena))*8, 8)
	chunkArena(segKindThreshPat, int64(len(threshArena))*8, 8)
	chunkArena(segKindWirePat, int64(len(wireArena))*4, 4)
	chunkArena(segKindSpine, int64(len(spine)), 1)
	for lvl := 1; lvl <= depth; lvl++ {
		for _, ls := range lvlSegs[lvl] {
			segs = append(segs, tcs2Segment{kind: segKindGroups, level: ls.level, count: ls.count, size: ls.size})
		}
	}
	if len(outStream) > 0 {
		segs = append(segs, tcs2Segment{kind: segKindOutputs, count: uint32(len(c.Outputs())), size: int64(len(outStream))})
	}

	// Header.
	var payloadLen int64
	for _, s := range segs {
		payloadLen += s.size
	}
	est := 64 + len(key) + len(meta) + 2*(len(wpLens)+len(wsLens)+len(tpLens)) + len(segs)*tcs2DirRowLen
	out := make([]byte, 0, int64(est)+payloadLen+int64(len(segs))*4+tcs2TailLen+64)
	out = append(out, tcs2Magic...)
	out = binary.LittleEndian.AppendUint32(out, FormatVersionTCS2)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(key)))
	out = append(out, key...)
	for _, v := range []int64{
		int64(c.NumInputs()), int64(c.Size()), int64(len(refs)), int64(len(c.Outputs())),
		c.StoredEdges(), int64(depth),
		int64(len(weightArena)), int64(len(threshArena)), int64(len(wireArena)),
		int64(len(wsLens)), int64(len(tpLens)), int64(len(wpLens)),
	} {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(segs)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(meta)))
	out = append(out, meta...)
	for _, n := range wsLens {
		out = binary.AppendUvarint(out, uint64(n))
	}
	for _, n := range tpLens {
		out = binary.AppendUvarint(out, uint64(n))
	}
	for _, n := range wpLens {
		out = binary.AppendUvarint(out, uint64(n))
	}
	for _, s := range segs {
		out = append(out, s.kind, s.level, 0, 0)
		out = binary.LittleEndian.AppendUint32(out, s.count)
		out = binary.LittleEndian.AppendUint64(out, uint64(s.size))
	}
	for len(out)%8 != 0 {
		out = append(out, 0)
	}
	headerLen := int64(len(out))

	// Payload.
	out = appendI64s(out, weightArena)
	out = appendI64s(out, threshArena)
	out = appendI32s(out, wireArena)
	out = append(out, spine...)
	for lvl := 1; lvl <= depth; lvl++ {
		out = append(out, streams[lvl]...)
	}
	out = append(out, outStream...)
	if int64(len(out))-headerLen != payloadLen {
		panic("store: tcs2 payload size accounting broken")
	}

	// Footer: leaves, root, tail.
	tableOff := len(out)
	off := headerLen
	for _, s := range segs {
		sum := crc32.Checksum(out[off:off+s.size], crcTable)
		out = binary.LittleEndian.AppendUint32(out, sum)
		off += s.size
	}
	h := sha256.New()
	h.Write(out[:headerLen])
	h.Write(out[tableOff:])
	out = h.Sum(out)
	out = binary.LittleEndian.AppendUint64(out, uint64(headerLen))
	out = binary.LittleEndian.AppendUint64(out, uint64(payloadLen))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(segs)))
	out = binary.LittleEndian.AppendUint32(out, 0)
	out = append(out, tcs2TailMagic...)
	return out, nil
}

// DecodeTCS2 parses a TCS2 envelope into a Built, copying the arenas to
// the heap. This is the portable path (and the fuzz target); MapCircuit
// uses the same parser with in-place arena aliasing.
func DecodeTCS2(shape core.Shape, data []byte) (*core.Built, error) {
	return decodeTCS2(shape, data, false)
}

// decodeTCS2 validates and parses. With alias=true the wire and weight
// arenas of the resulting circuit alias data directly (zero copy of the
// hot arrays); the caller guarantees data outlives the circuit and is
// never written. Aliasing silently degrades to copying when the host is
// big-endian or the buffer is misaligned.
func decodeTCS2(shape core.Shape, data []byte, alias bool) (*core.Built, error) {
	env, err := parseTCS2Envelope(data)
	if err != nil {
		return nil, err
	}
	if want := shape.Key(); env.key != want {
		return nil, fmt.Errorf("%w: envelope is for shape %q, want %q", ErrCorrupt, env.key, want)
	}
	meta, err := decodeMeta(env.meta)
	if err != nil {
		return nil, fmt.Errorf("%w: metadata: %v", ErrCorrupt, err)
	}
	c, err := env.assemble(alias)
	if err != nil {
		return nil, err
	}
	built, err := core.RestoreBuilt(shape, c, meta)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return built, nil
}

// tcs2Envelope is a parsed-and-verified view into a TCS2 byte buffer:
// every offset has been bounds-checked, every segment CRC verified and
// the root digest recomputed before any field is populated.
type tcs2Envelope struct {
	data    []byte
	key     string
	meta    []byte
	root    [32]byte
	numSegs int

	numInputs, numGates, numGroups, numOutputs int64
	storedEdges, depth                         int64

	weightWords, threshWords, wireWords int64
	wsLens, tpLens, wpLens              []uint32

	segs       []tcs2Segment
	payloadOff int64

	// Region byte offsets within data, derived from the directory.
	weightOff, threshOff, wireOff, spineOff int64
	groupSegs                               []int // indices into segs, payload order
	outputsOff, outputsLen                  int64
}

// parseTCS2Envelope verifies integrity (root digest, then every segment
// leaf) and structure (counts, directory geometry, padding) without
// expanding anything. Damage and structural lies return ErrCorrupt;
// only a clean version-field mismatch returns ErrVersion.
func parseTCS2Envelope(data []byte) (*tcs2Envelope, error) {
	if len(data) < tcs2TailLen || string(data[len(data)-4:]) != tcs2TailMagic {
		return nil, fmt.Errorf("%w: not a TCS2 envelope (bad tail)", ErrCorrupt)
	}
	tail := data[len(data)-tcs2TailLen:]
	headerLen := int64(binary.LittleEndian.Uint64(tail[32:]))
	payloadLen := int64(binary.LittleEndian.Uint64(tail[40:]))
	numSegs := int64(binary.LittleEndian.Uint32(tail[48:]))
	if binary.LittleEndian.Uint32(tail[52:]) != 0 {
		return nil, fmt.Errorf("%w: nonzero reserved tail field", ErrCorrupt)
	}
	minHeader := int64(4 + 4 + 4 + tcs2CountsLen + 4 + 4)
	if headerLen < minHeader || headerLen%8 != 0 || payloadLen < 0 || numSegs < 0 ||
		headerLen+payloadLen+4*numSegs+tcs2TailLen != int64(len(data)) {
		return nil, fmt.Errorf("%w: inconsistent envelope geometry (header %d, payload %d, %d segments, %d bytes)",
			ErrCorrupt, headerLen, payloadLen, numSegs, len(data))
	}
	header := data[:headerLen]
	table := data[headerLen+payloadLen : headerLen+payloadLen+4*numSegs]

	// Root first: nothing below is trusted until the digest matches.
	h := sha256.New()
	h.Write(header)
	h.Write(table)
	var root [32]byte
	h.Sum(root[:0])
	stored := tail[:32]
	if string(root[:]) != string(stored) {
		return nil, fmt.Errorf("%w: root digest mismatch", ErrCorrupt)
	}

	if string(header[:4]) != tcs2Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, header[:4])
	}
	if v := binary.LittleEndian.Uint32(header[4:]); v != FormatVersionTCS2 {
		return nil, fmt.Errorf("%w: file has format v%d, this build reads v%d", ErrVersion, v, FormatVersionTCS2)
	}
	env := &tcs2Envelope{data: data, root: root, numSegs: int(numSegs), payloadOff: headerLen}
	d := &decoder{data: header, off: 8}
	env.key = string(d.bytes(int64(d.u32())))
	var counts [12]int64
	for i := range counts {
		counts[i] = d.i64()
	}
	env.numInputs, env.numGates, env.numGroups, env.numOutputs = counts[0], counts[1], counts[2], counts[3]
	env.storedEdges, env.depth = counts[4], counts[5]
	env.weightWords, env.threshWords, env.wireWords = counts[6], counts[7], counts[8]
	numWS, numTP, numWP := counts[9], counts[10], counts[11]
	if int64(d.u32()) != numSegs {
		d.err = fmt.Errorf("segment count disagrees with tail")
	}
	env.meta = d.bytes(int64(d.u32()))
	if d.err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, d.err)
	}

	// Plausibility before any allocation. The arenas live in the payload
	// so their sizes are hard-bounded by it; expanded allocations (gates,
	// groups, outputs) are bounded by maxExpandFactor.
	budget := maxExpandFactor*int64(len(data)) + 1<<20
	switch {
	case env.numInputs < 0 || env.numGates < 0 || env.numGroups < 0 || env.numOutputs < 0,
		env.storedEdges < 0 || env.depth < 0 || env.depth > maxDepthTCS2,
		env.numInputs+env.numGates > int64(1)<<31-1,
		env.numGates > budget || env.numGroups > payloadLen || env.numOutputs > payloadLen,
		env.weightWords < 0 || env.threshWords < 0 || env.wireWords < 0,
		env.weightWords*8+env.threshWords*8+env.wireWords*4+env.numGroups > payloadLen,
		numWS < 0 || numTP < 0 || numWP < 0,
		numWS+numTP+numWP > headerLen: // one uvarint byte each, minimum
		return nil, fmt.Errorf("%w: implausible header counts", ErrCorrupt)
	}

	// Dictionary length tables. Each table's lengths must sum to its
	// arena's word count exactly.
	readLens := func(n, words int64, what string) []uint32 {
		if d.err != nil {
			return nil
		}
		lens := make([]uint32, n)
		var sum int64
		for i := range lens {
			v := d.uvarint()
			if v > uint64(words) {
				d.err = fmt.Errorf("%s length %d exceeds arena", what, v)
				return nil
			}
			lens[i] = uint32(v)
			sum += int64(v)
		}
		if d.err == nil && sum != words {
			d.err = fmt.Errorf("%s lengths sum to %d, arena holds %d", what, sum, words)
		}
		return lens
	}
	env.wsLens = readLens(numWS, env.weightWords, "weight span")
	env.tpLens = readLens(numTP, env.threshWords, "threshold pattern")
	env.wpLens = readLens(numWP, env.wireWords, "wire pattern")
	if d.err != nil {
		return nil, fmt.Errorf("%w: dictionary tables: %v", ErrCorrupt, d.err)
	}

	// Directory: kinds in region order, sizes covering the payload
	// exactly, arena chunks summing to their region sizes.
	if int64(len(header))-int64(d.off) < numSegs*tcs2DirRowLen {
		return nil, fmt.Errorf("%w: directory truncated", ErrCorrupt)
	}
	env.segs = make([]tcs2Segment, numSegs)
	var (
		prevKind  byte
		kindBytes [segKindOutputs + 1]int64
		grpRecs   int64
	)
	off := headerLen
	for i := range env.segs {
		row := header[d.off : d.off+tcs2DirRowLen]
		d.off += tcs2DirRowLen
		s := tcs2Segment{
			kind:  row[0],
			level: row[1],
			count: binary.LittleEndian.Uint32(row[4:]),
			size:  int64(binary.LittleEndian.Uint64(row[8:])),
		}
		if row[2] != 0 || row[3] != 0 {
			return nil, fmt.Errorf("%w: nonzero reserved directory bytes", ErrCorrupt)
		}
		if s.kind < segKindWeights || s.kind > segKindOutputs || s.kind < prevKind {
			return nil, fmt.Errorf("%w: segment %d kind %d out of order", ErrCorrupt, i, s.kind)
		}
		if s.size < 0 || off+s.size > headerLen+payloadLen {
			return nil, fmt.Errorf("%w: segment %d overruns payload", ErrCorrupt, i)
		}
		if s.kind == segKindGroups {
			if s.level < 1 || int64(s.level) > env.depth || s.count == 0 {
				return nil, fmt.Errorf("%w: group segment %d has level %d, %d records", ErrCorrupt, i, s.level, s.count)
			}
			grpRecs += int64(s.count)
			env.groupSegs = append(env.groupSegs, i)
		} else if s.level != 0 {
			return nil, fmt.Errorf("%w: segment %d kind %d carries a level", ErrCorrupt, i, s.kind)
		}
		switch s.kind {
		case segKindWeights:
			env.weightOff = off - int64(kindBytes[s.kind])
		case segKindThreshPat:
			env.threshOff = off - int64(kindBytes[s.kind])
		case segKindWirePat:
			env.wireOff = off - int64(kindBytes[s.kind])
		case segKindSpine:
			env.spineOff = off - int64(kindBytes[s.kind])
		case segKindOutputs:
			env.outputsOff = off - int64(kindBytes[s.kind])
		}
		kindBytes[s.kind] += s.size
		env.segs[i] = s
		prevKind = s.kind
		off += s.size
	}
	if off != headerLen+payloadLen {
		return nil, fmt.Errorf("%w: directory covers %d payload bytes, have %d", ErrCorrupt, off-headerLen, payloadLen)
	}
	if kindBytes[segKindWeights] != env.weightWords*8 ||
		kindBytes[segKindThreshPat] != env.threshWords*8 ||
		kindBytes[segKindWirePat] != env.wireWords*4 ||
		kindBytes[segKindSpine] != env.numGroups ||
		grpRecs != env.numGroups {
		return nil, fmt.Errorf("%w: directory regions disagree with header counts", ErrCorrupt)
	}
	env.outputsLen = kindBytes[segKindOutputs]
	// Default the region offsets of empty regions to the position they
	// would occupy, so slicing them yields empty slices, not garbage.
	regionEnd := headerLen
	for kind := byte(segKindWeights); kind <= segKindOutputs; kind++ {
		if kindBytes[kind] == 0 {
			switch kind {
			case segKindWeights:
				env.weightOff = regionEnd
			case segKindThreshPat:
				env.threshOff = regionEnd
			case segKindWirePat:
				env.wireOff = regionEnd
			case segKindSpine:
				env.spineOff = regionEnd
			case segKindOutputs:
				env.outputsOff = regionEnd
			}
		}
		regionEnd += kindBytes[kind]
	}
	// Header padding after the directory must be zero.
	for _, b := range header[d.off:] {
		if b != 0 {
			return nil, fmt.Errorf("%w: nonzero header padding", ErrCorrupt)
		}
	}

	// Leaves: every payload segment's CRC-32C, one sequential pass.
	off = headerLen
	for i, s := range env.segs {
		want := binary.LittleEndian.Uint32(table[4*i:])
		if got := crc32.Checksum(data[off:off+s.size], crcTable); got != want {
			return nil, fmt.Errorf("%w: segment %d (kind %d) checksum mismatch (have %08x, stored %08x)",
				ErrCorrupt, i, s.kind, got, want)
		}
		off += s.size
	}
	return env, nil
}

// assemble expands the verified envelope into a circuit. Hot arenas
// (wires, weights) alias the envelope bytes when alias is set and the
// platform allows it; everything else — group table, thresholds, spine
// expansion — is decoded onto the heap. All structural trust decisions
// are delegated to circuit.Assemble, which re-checks every span and
// wire bound at dictionary cost.
func (env *tcs2Envelope) assemble(alias bool) (*circuit.Circuit, error) {
	data := env.data
	weights := sliceI64(data[env.weightOff:env.weightOff+env.weightWords*8], alias)
	threshPats := sliceI64(data[env.threshOff:env.threshOff+env.threshWords*8], alias)
	wires := sliceI32(data[env.wireOff:env.wireOff+env.wireWords*4], alias)
	spine := data[env.spineOff : env.spineOff+env.numGroups]

	// Dictionary offsets from the length tables.
	wsOff := prefixSums(env.wsLens)
	tpOff := prefixSums(env.tpLens)
	wpOff := prefixSums(env.wpLens)

	raw := circuit.Raw{
		NumInputs:  int(env.numInputs),
		Wires:      wires,
		Weights:    weights,
		Thresholds: make([]int64, env.numGates),
		Groups:     make([]circuit.RawGroup, env.numGroups),
		Outputs:    make([]circuit.Wire, env.numOutputs),
	}

	// Per-level stream cursors over the group segments.
	type cursor struct {
		segIdx    []int // remaining segments for this level
		rec       []byte
		remaining uint32
		prevBase  int64
	}
	cursors := make([]cursor, env.depth+1)
	for _, si := range env.groupSegs {
		s := env.segs[si]
		cursors[s.level].segIdx = append(cursors[s.level].segIdx, si)
	}
	segOff := make([]int64, len(env.segs))
	{
		off := env.payloadOff
		for i, s := range env.segs {
			segOff[i] = off
			off += s.size
		}
	}

	var gateOff, edgeSum int64
	for gi := int64(0); gi < env.numGroups; gi++ {
		lvl := spine[gi]
		if lvl < 1 || int64(lvl) > env.depth {
			return nil, fmt.Errorf("%w: group %d has spine level %d", ErrCorrupt, gi, lvl)
		}
		cur := &cursors[lvl]
		if cur.remaining == 0 {
			if len(cur.rec) != 0 {
				return nil, fmt.Errorf("%w: trailing bytes in level-%d stream segment", ErrCorrupt, lvl)
			}
			if len(cur.segIdx) == 0 {
				return nil, fmt.Errorf("%w: level-%d stream exhausted at group %d", ErrCorrupt, lvl, gi)
			}
			si := cur.segIdx[0]
			cur.segIdx = cur.segIdx[1:]
			cur.rec = data[segOff[si] : segOff[si]+env.segs[si].size]
			cur.remaining = env.segs[si].count
			cur.prevBase = 0 // segment starts with an absolute base
		}
		wp, ok1 := readUvarint(&cur.rec)
		ws, ok2 := readUvarint(&cur.rec)
		tp, ok3 := readUvarint(&cur.rec)
		dz, ok4 := readUvarint(&cur.rec)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return nil, fmt.Errorf("%w: truncated group record %d", ErrCorrupt, gi)
		}
		if wp >= uint64(len(env.wpLens)) || ws >= uint64(len(env.wsLens)) || tp >= uint64(len(env.tpLens)) {
			return nil, fmt.Errorf("%w: group %d references unknown dictionary entry", ErrCorrupt, gi)
		}
		base := unzigzag(dz) + cur.prevBase
		cur.prevBase = base
		cur.remaining--
		n := int64(env.wpLens[wp])
		if int64(env.wsLens[ws]) != n {
			return nil, fmt.Errorf("%w: group %d wire pattern length %d != weight span length %d",
				ErrCorrupt, gi, n, env.wsLens[ws])
		}
		gc := int64(env.tpLens[tp])
		if gc < 1 || gateOff+gc > env.numGates {
			return nil, fmt.Errorf("%w: group %d gate count %d overruns %d gates", ErrCorrupt, gi, gc, env.numGates)
		}
		if base < -(int64(1)<<31) || base >= int64(1)<<31 {
			return nil, fmt.Errorf("%w: group %d wire base %d overflows int32", ErrCorrupt, gi, base)
		}
		copy(raw.Thresholds[gateOff:], threshPats[tpOff[tp]:tpOff[tp]+gc])
		raw.Groups[gi] = circuit.RawGroup{
			InStart:   wpOff[wp],
			InEnd:     wpOff[wp] + n,
			WOff:      wsOff[ws],
			GateCount: int32(gc),
			Level:     int32(lvl),
			WireBase:  circuit.Wire(base),
		}
		gateOff += gc
		edgeSum += n
	}
	if gateOff != env.numGates {
		return nil, fmt.Errorf("%w: groups cover %d gates, header claims %d", ErrCorrupt, gateOff, env.numGates)
	}
	if edgeSum != env.storedEdges {
		return nil, fmt.Errorf("%w: groups cover %d stored edges, header claims %d", ErrCorrupt, edgeSum, env.storedEdges)
	}
	for lvl := 1; lvl <= int(env.depth); lvl++ {
		cur := &cursors[lvl]
		if cur.remaining != 0 || len(cur.segIdx) != 0 || len(cur.rec) != 0 {
			return nil, fmt.Errorf("%w: level-%d stream not fully consumed", ErrCorrupt, lvl)
		}
	}

	outBytes := data[env.outputsOff : env.outputsOff+env.outputsLen]
	var prev int64
	for i := range raw.Outputs {
		dz, ok := readUvarint(&outBytes)
		if !ok {
			return nil, fmt.Errorf("%w: truncated outputs", ErrCorrupt)
		}
		v := unzigzag(dz) + prev
		prev = v
		if v < int64(-1)<<31 || v >= int64(1)<<31 {
			return nil, fmt.Errorf("%w: output wire %d overflows int32", ErrCorrupt, v)
		}
		raw.Outputs[i] = circuit.Wire(v)
	}
	if len(outBytes) != 0 {
		return nil, fmt.Errorf("%w: %d trailing output bytes", ErrCorrupt, len(outBytes))
	}

	c, err := circuit.Assemble(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if int64(c.Depth()) != env.depth {
		return nil, fmt.Errorf("%w: circuit depth %d, header claims %d", ErrCorrupt, c.Depth(), env.depth)
	}
	return c, nil
}

// readUvarint consumes one uvarint from *b, advancing it.
func readUvarint(b *[]byte) (uint64, bool) {
	v, n := binary.Uvarint(*b)
	if n <= 0 {
		return 0, false
	}
	*b = (*b)[n:]
	return v, true
}

func prefixSums(lens []uint32) []int64 {
	out := make([]int64, len(lens))
	var sum int64
	for i, n := range lens {
		out[i] = sum
		sum += int64(n)
	}
	return out
}

func appendI64s(out []byte, vs []int64) []byte {
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	return out
}

func appendI32s(out []byte, vs []int32) []byte {
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	return out
}

// appendMeta serializes a BuiltMeta:
//
//	u64 schedLen | sched[] (i64)
//	4 audits (DownA DownB DownG Up): u64 len | values[] (i64)
//	product i64 | auditOutput i64
//	u64 numReps | per rep: pos half, neg half
//	  half: u64 nTerms | terms[] (i32 wire, i64 weight) | i64 max
//	i64 output wire
func appendMeta(out []byte, m core.BuiltMeta) []byte {
	i64 := func(v int64) { out = binary.LittleEndian.AppendUint64(out, uint64(v)) }
	i64s := func(vs []int64) {
		i64(int64(len(vs)))
		for _, v := range vs {
			i64(v)
		}
	}
	i64(int64(len(m.Schedule)))
	for _, h := range m.Schedule {
		i64(int64(h))
	}
	i64s(m.Audit.DownA)
	i64s(m.Audit.DownB)
	i64s(m.Audit.DownG)
	i64s(m.Audit.Up)
	i64(m.Audit.Product)
	i64(m.Audit.Output)
	i64(int64(len(m.Reps)))
	for _, r := range m.Reps {
		for _, half := range []arith.Rep{r.Pos, r.Neg} {
			i64(int64(len(half.Terms)))
			for _, t := range half.Terms {
				out = binary.LittleEndian.AppendUint32(out, uint32(t.Wire))
				i64(t.Weight)
			}
			i64(half.Max)
		}
	}
	i64(int64(m.Output))
	return out
}

func decodeMeta(data []byte) (core.BuiltMeta, error) {
	d := &decoder{data: data}
	var m core.BuiltMeta

	schedLen := d.count(8)
	if d.err == nil {
		m.Schedule = make(tctree.Schedule, schedLen)
		for i := range m.Schedule {
			m.Schedule[i] = int(d.i64())
		}
	}
	audit := func() []int64 {
		n := d.count(8)
		if d.err != nil || n == 0 {
			return nil
		}
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = d.i64()
		}
		return vs
	}
	m.Audit.DownA = audit()
	m.Audit.DownB = audit()
	m.Audit.DownG = audit()
	m.Audit.Up = audit()
	m.Audit.Product = d.i64()
	m.Audit.Output = d.i64()

	numReps := d.count(32) // a rep is at least two empty halves (16 bytes each)
	if d.err == nil {
		m.Reps = make([]arith.Signed, numReps)
		for i := range m.Reps {
			for _, half := range []*arith.Rep{&m.Reps[i].Pos, &m.Reps[i].Neg} {
				nTerms := d.count(12)
				if d.err != nil {
					break
				}
				half.Terms = make([]arith.Term, nTerms)
				for j := range half.Terms {
					half.Terms[j] = arith.Term{Wire: circuit.Wire(d.u32()), Weight: d.i64()}
				}
				half.Max = d.i64()
			}
		}
	}
	m.Output = circuit.Wire(d.i64())
	if d.err != nil {
		return core.BuiltMeta{}, d.err
	}
	if d.off != len(data) {
		return core.BuiltMeta{}, fmt.Errorf("%d trailing metadata bytes", len(data)-d.off)
	}
	return m, nil
}

// decoder reads little-endian values out of a byte slice; methods
// return zeros after the first error.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) has(n int64) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || int64(len(d.data)-d.off) < n {
		d.err = io.ErrUnexpectedEOF
		return false
	}
	return true
}

// count reads a u64 element count and rejects any value whose minimum
// encoding (elemSize bytes each) cannot fit in the remaining input, so
// a hostile length cannot drive a large allocation.
func (d *decoder) count(elemSize int64) int64 {
	n := d.i64()
	if d.err != nil {
		return 0
	}
	if n < 0 || n > int64(len(d.data)-d.off)/elemSize {
		d.err = fmt.Errorf("implausible element count %d", n)
		return 0
	}
	return n
}

func (d *decoder) i64() int64 {
	if !d.has(8) {
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(d.data[d.off:]))
	d.off += 8
	return v
}

func (d *decoder) u64() uint64 { return uint64(d.i64()) }

func (d *decoder) u32() uint32 {
	if !d.has(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v
}

func (d *decoder) bytes(n int64) []byte {
	if !d.has(n) {
		return nil
	}
	b := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}
