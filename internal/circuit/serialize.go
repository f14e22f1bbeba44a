package circuit

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary circuit format, versioned: circuits with millions of gates
// round-trip in tens of milliseconds, so a built circuit can be saved
// to a file instead of reconstructed (internal/store's compact TCS2
// envelope and content-addressed cache are the deduplicated,
// mmap-able alternative).
//
// Layout (little endian):
//
//	magic "TCM1" | numInputs | numGroups | numGates | numWires(stored)
//	per group: inStart inEnd gateStart gateCount level
//	wires[] | weights[] | thresholds[] | gateGroup[] | numOutputs | outputs[]
//
// Counts and weights are int64; wire ids and gate groups are int32. The
// encoder and decoder use manual little-endian loops over bulk byte
// buffers rather than encoding/binary's reflective slice path — the
// difference between ~100 MB/s and multiple GB/s.

const magic = "TCM1"

const (
	// headerLimit rejects absurd gate/wire counts before any allocation.
	headerLimit = int64(1) << 34
	// chunkElems bounds per-step allocation when decoding from a stream
	// whose true length is unknown: a hostile header claiming 2^34 gates
	// fails at EOF with bounded memory instead of OOMing up front.
	chunkElems = 1 << 16
)

// WriteTo serializes the circuit. It implements io.WriterTo.
func (c *Circuit) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := &countWriter{w: bw}
	e := &encoder{w: cw, buf: make([]byte, 0, 1<<16)}
	c.encodeTo(e)
	e.flush()
	if e.err == nil {
		e.err = bw.Flush()
	}
	return cw.n, e.err
}

// encodeTo writes the TCM1 body. Dictionary-shared circuits (Assemble)
// are expanded back to the canonical parallel layout — group spans are
// re-tiled cumulatively and each span's wires/weights written through
// the (wireBase, wOff) indirection — so the bytes are identical to
// serializing the equivalent builder-built circuit. For canonical
// circuits the bulk-array path below produces those same bytes without
// the per-group walk.
func (c *Circuit) encodeTo(e *encoder) {
	e.raw([]byte(magic))
	e.i64(int64(c.numInputs), int64(len(c.groups)), int64(len(c.thresholds)), c.storedEdges)
	if !c.shared {
		for _, g := range c.groups {
			e.i64(g.inStart, g.inEnd, int64(g.gateStart), int64(g.gateCount), int64(g.level))
		}
		e.i32s(c.wires)
		e.i64s(c.weights)
	} else {
		var off int64
		for _, g := range c.groups {
			n := g.inEnd - g.inStart
			e.i64(off, off+n, int64(g.gateStart), int64(g.gateCount), int64(g.level))
			off += n
		}
		for gi := range c.groups {
			g := &c.groups[gi]
			if g.wireBase == 0 {
				e.i32s(c.wires[g.inStart:g.inEnd])
			} else {
				for _, w := range c.wires[g.inStart:g.inEnd] {
					e.i32(g.wireBase + w)
				}
			}
		}
		for gi := range c.groups {
			g := &c.groups[gi]
			e.i64s(c.weights[g.wOff : g.wOff+(g.inEnd-g.inStart)])
		}
	}
	e.i64s(c.thresholds)
	e.i32s(c.gateGroup)
	e.i64(int64(len(c.outputs)))
	e.i32s(c.outputs)
}

// encoder batches little-endian values into a byte buffer and flushes
// it to w whenever it fills. All methods are no-ops after an error.
type encoder struct {
	w   io.Writer
	buf []byte
	err error
}

func (e *encoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

func (e *encoder) room(n int) bool {
	if len(e.buf)+n > cap(e.buf) {
		e.flush()
	}
	return e.err == nil
}

func (e *encoder) raw(p []byte) {
	if e.room(len(p)) {
		e.buf = append(e.buf, p...)
	}
}

func (e *encoder) i64(vs ...int64) {
	for _, v := range vs {
		if !e.room(8) {
			return
		}
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v))
	}
}

func (e *encoder) i32(v int32) {
	if e.room(4) {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(v))
	}
}

func (e *encoder) i64s(vs []int64) {
	for _, v := range vs {
		if !e.room(8) {
			return
		}
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v))
	}
}

func (e *encoder) i32s(vs []int32) {
	for _, v := range vs {
		if !e.room(4) {
			return
		}
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(v))
	}
}

// Read deserializes a circuit written by WriteTo, validating structural
// invariants so a corrupted stream cannot produce an inconsistent
// circuit. It consumes exactly the circuit's bytes from r. Slices grow
// chunk by chunk as data actually arrives, so a lying header fails at
// EOF with bounded memory.
func Read(r io.Reader) (*Circuit, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	scratch := make([]byte, 8*chunkElems)

	head := scratch[:4]
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("circuit: read magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("circuit: bad magic %q", head)
	}
	readI64s := func(dst []int64) error {
		b := scratch[:8*len(dst)]
		if _, err := io.ReadFull(br, b); err != nil {
			return err
		}
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return nil
	}

	var header [4]int64
	if err := readI64s(header[:]); err != nil {
		return nil, fmt.Errorf("circuit: read header: %w", err)
	}
	numInputs, numGroups, numGates, numWires := header[0], header[1], header[2], header[3]
	if err := checkHeader(numInputs, numGroups, numGates, numWires); err != nil {
		return nil, err
	}

	// Never allocate on the header's say-so alone (see chunkElems).
	readWires := func(n int64) ([]Wire, error) {
		var out []Wire
		for n > 0 {
			step := n
			if step > chunkElems {
				step = chunkElems
			}
			b := scratch[:4*step]
			if _, err := io.ReadFull(br, b); err != nil {
				return nil, err
			}
			buf := make([]Wire, step)
			for i := range buf {
				buf[i] = Wire(binary.LittleEndian.Uint32(b[4*i:]))
			}
			out = append(out, buf...)
			n -= step
		}
		return out, nil
	}
	readInt64s := func(n int64) ([]int64, error) {
		var out []int64
		for n > 0 {
			step := n
			if step > chunkElems {
				step = chunkElems
			}
			buf := make([]int64, step)
			if err := readI64s(buf); err != nil {
				return nil, err
			}
			out = append(out, buf...)
			n -= step
		}
		return out, nil
	}

	c := &Circuit{numInputs: int(numInputs)}
	for i := int64(0); i < numGroups; i++ {
		var g [5]int64
		if err := readI64s(g[:]); err != nil {
			return nil, fmt.Errorf("circuit: read group %d: %w", i, err)
		}
		c.groups = append(c.groups, group{
			inStart: g[0], inEnd: g[1], wOff: g[0],
			gateStart: int32(g[2]), gateCount: int32(g[3]), level: int32(g[4]),
		})
	}
	var err error
	if c.wires, err = readWires(numWires); err != nil {
		return nil, fmt.Errorf("circuit: read wires: %w", err)
	}
	if c.weights, err = readInt64s(numWires); err != nil {
		return nil, fmt.Errorf("circuit: read weights: %w", err)
	}
	if c.thresholds, err = readInt64s(numGates); err != nil {
		return nil, fmt.Errorf("circuit: read thresholds: %w", err)
	}
	if c.gateGroup, err = readWires(numGates); err != nil { // int32s, same shape as wires
		return nil, fmt.Errorf("circuit: read gate groups: %w", err)
	}
	var nOut [1]int64
	if err := readI64s(nOut[:]); err != nil {
		return nil, fmt.Errorf("circuit: read output count: %w", err)
	}
	if nOut[0] < 0 || nOut[0] > numInputs+numGates {
		return nil, fmt.Errorf("circuit: implausible output count %d", nOut[0])
	}
	if c.outputs, err = readWires(nOut[0]); err != nil {
		return nil, fmt.Errorf("circuit: read outputs: %w", err)
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return c, nil
}

// checkHeader rejects implausible counts before any allocation.
func checkHeader(numInputs, numGroups, numGates, numWires int64) error {
	if numInputs < 0 || numGroups < 0 || numGates < 0 || numWires < 0 ||
		numGroups > numGates || numGates > headerLimit || numWires > headerLimit || numInputs > headerLimit {
		return fmt.Errorf("circuit: implausible header [%d %d %d %d]", numInputs, numGroups, numGates, numWires)
	}
	return nil
}

// finish validates a freshly decoded circuit and rebuilds the derived
// state Build computes (depth, cached edge count, level index).
func (c *Circuit) finish() error {
	if err := c.validate(); err != nil {
		return err
	}
	c.edges = c.computeEdges()
	c.storedEdges = int64(len(c.wires))
	for _, g := range c.groups {
		if int(g.level) > c.depth {
			c.depth = int(g.level)
		}
	}
	c.levelGroups = make([][]int32, c.depth)
	for gi, gr := range c.groups {
		c.levelGroups[gr.level-1] = append(c.levelGroups[gr.level-1], int32(gi))
	}
	return nil
}

// validate checks the invariants Build guarantees by construction.
func (c *Circuit) validate() error {
	nw := int64(len(c.wires))
	covered := int32(0)
	for i, g := range c.groups {
		if g.inStart < 0 || g.inEnd < g.inStart || g.inEnd > nw {
			return fmt.Errorf("circuit: group %d has bad span [%d,%d)", i, g.inStart, g.inEnd)
		}
		if g.gateStart != covered || g.gateCount < 1 {
			return fmt.Errorf("circuit: group %d gates not contiguous", i)
		}
		if g.level < 1 {
			return fmt.Errorf("circuit: group %d has level %d", i, g.level)
		}
		covered += g.gateCount
	}
	if int(covered) != len(c.thresholds) {
		return fmt.Errorf("circuit: groups cover %d gates, have %d", covered, len(c.thresholds))
	}
	for g, gi := range c.gateGroup {
		if gi < 0 || int(gi) >= len(c.groups) {
			return fmt.Errorf("circuit: gate %d in unknown group %d", g, gi)
		}
		gr := c.groups[gi]
		if int32(g) < gr.gateStart || int32(g) >= gr.gateStart+gr.gateCount {
			return fmt.Errorf("circuit: gate %d outside its group's range", g)
		}
	}
	maxWire := int32(c.numInputs + len(c.thresholds))
	for i, g := range c.groups {
		for p := g.inStart; p < g.inEnd; p++ {
			w := c.wires[p]
			if w < 0 || w >= maxWire {
				return fmt.Errorf("circuit: group %d references wire %d out of range", i, w)
			}
			// Acyclicity: inputs must precede the group's first gate.
			if int(w) >= c.numInputs && int(w)-c.numInputs >= int(g.gateStart) {
				return fmt.Errorf("circuit: group %d references non-earlier wire %d", i, w)
			}
			// Level consistency.
			wl := int32(0)
			if int(w) >= c.numInputs {
				wl = c.groups[c.gateGroup[int(w)-c.numInputs]].level
			}
			if wl >= g.level {
				return fmt.Errorf("circuit: group %d level %d not above input level %d", i, g.level, wl)
			}
		}
	}
	for _, o := range c.outputs {
		if o < 0 || o >= maxWire {
			return fmt.Errorf("circuit: output wire %d out of range", o)
		}
	}
	return nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
