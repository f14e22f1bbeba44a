package serve

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
)

// Binary frame codec for POST /v1/eval — the low-overhead alternative
// to the JSON endpoints. A frame carries the shape selector in a
// fixed+varint header and the raw circuit input bits packed 8 per byte
// (LSB first), so a hot client skips JSON marshalling entirely and the
// wire cost per request drops from kilobytes of digit arrays to a few
// dozen header bytes plus ceil(bits/8).
//
// Request frame ("TCF1"):
//
//	magic[4] op[1] alg[1] flags[1]
//	uvarint N, varint Tau, uvarint Depth, uvarint EntryBits, uvarint GroupSize
//	uvarint nbits, packed input bits
//
// Response frame ("TCR1"):
//
//	magic[4] uvarint nbits, packed output bits (Circuit.Outputs order)
//
// Both sides are strict: unknown op/alg bytes, truncated payloads,
// nonzero padding bits and trailing bytes are all rejected, mirroring
// the trailing-byte-strict TCS2 store decoder.
const FrameContentType = "application/x-tcframe"

var (
	frameMagic     = [4]byte{'T', 'C', 'F', '1'}
	frameRespMagic = [4]byte{'T', 'C', 'R', '1'}
)

// maxFrameBits bounds the declared bit counts so a hostile header
// cannot force a huge allocation before validation against the circuit.
const maxFrameBits = 1 << 28

var frameOps = map[core.Op]byte{core.OpMatMul: 1, core.OpTrace: 2, core.OpCount: 3}
var frameAlgs = map[string]byte{"strassen": 1, "winograd": 2, "naive2": 3}

var frameOpByCode = invertOps(frameOps)
var frameAlgByCode = invertAlgs(frameAlgs)

func invertOps(m map[core.Op]byte) map[byte]core.Op {
	out := make(map[byte]core.Op, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

func invertAlgs(m map[string]byte) map[byte]string {
	out := make(map[byte]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// EncodeFrame serializes one evaluation request: the shape selector and
// the circuit input bits (the same assignment Do takes).
func EncodeFrame(shape core.Shape, in []bool) ([]byte, error) {
	op, ok := frameOps[shape.Op]
	if !ok {
		return nil, fmt.Errorf("serve: frame: unknown op %q", shape.Op)
	}
	alg, ok := frameAlgs[shape.Alg]
	if !ok {
		return nil, fmt.Errorf("serve: frame: unknown algorithm %q", shape.Alg)
	}
	if shape.N < 0 || shape.Depth < 0 || shape.EntryBits < 0 || shape.GroupSize < 0 {
		return nil, fmt.Errorf("serve: frame: negative shape field in %s", shape.Key())
	}
	var flags byte
	if shape.Signed {
		flags |= 1
	}
	if shape.SharedMSB {
		flags |= 2
	}
	b := make([]byte, 0, 32+(len(in)+7)/8)
	b = append(b, frameMagic[:]...)
	b = append(b, op, alg, flags)
	b = binary.AppendUvarint(b, uint64(shape.N))
	b = binary.AppendVarint(b, shape.Tau)
	b = binary.AppendUvarint(b, uint64(shape.Depth))
	b = binary.AppendUvarint(b, uint64(shape.EntryBits))
	b = binary.AppendUvarint(b, uint64(shape.GroupSize))
	return appendBits(b, in), nil
}

// DecodeFrame parses one request frame, rejecting malformed, truncated
// or trailing-padded input.
func DecodeFrame(b []byte) (core.Shape, []bool, error) {
	var shape core.Shape
	if len(b) < len(frameMagic)+3 {
		return shape, nil, fmt.Errorf("serve: frame: %d bytes is shorter than the header", len(b))
	}
	if [4]byte(b[:4]) != frameMagic {
		return shape, nil, fmt.Errorf("serve: frame: bad magic %q", b[:4])
	}
	opCode, algCode, flags := b[4], b[5], b[6]
	b = b[7:]
	op, ok := frameOpByCode[opCode]
	if !ok {
		return shape, nil, fmt.Errorf("serve: frame: unknown op code %d", opCode)
	}
	alg, ok := frameAlgByCode[algCode]
	if !ok {
		return shape, nil, fmt.Errorf("serve: frame: unknown algorithm code %d", algCode)
	}
	if flags > 3 {
		return shape, nil, fmt.Errorf("serve: frame: unknown flag bits %#x", flags)
	}
	shape.Op, shape.Alg = op, alg
	shape.Signed = flags&1 != 0
	shape.SharedMSB = flags&2 != 0
	var err error
	if shape.N, b, err = frameUvarint(b, "n"); err != nil {
		return shape, nil, err
	}
	var tau int64
	var k int
	if tau, k = binary.Varint(b); k <= 0 {
		return shape, nil, fmt.Errorf("serve: frame: bad tau varint")
	}
	shape.Tau, b = tau, b[k:]
	if shape.Depth, b, err = frameUvarint(b, "depth"); err != nil {
		return shape, nil, err
	}
	if shape.EntryBits, b, err = frameUvarint(b, "entry bits"); err != nil {
		return shape, nil, err
	}
	if shape.GroupSize, b, err = frameUvarint(b, "group size"); err != nil {
		return shape, nil, err
	}
	in, rest, err := parseBits(b)
	if err != nil {
		return shape, nil, err
	}
	if len(rest) != 0 {
		return shape, nil, fmt.Errorf("serve: frame: %d trailing bytes", len(rest))
	}
	return shape, in, nil
}

// EncodeFrameResponse serializes the marked-output bits of one reply.
func EncodeFrameResponse(out []bool) []byte {
	b := make([]byte, 0, 8+(len(out)+7)/8)
	b = append(b, frameRespMagic[:]...)
	return appendBits(b, out)
}

// DecodeFrameResponse parses a response frame back into output bits.
func DecodeFrameResponse(b []byte) ([]bool, error) {
	if len(b) < len(frameRespMagic) {
		return nil, fmt.Errorf("serve: frame: response shorter than magic")
	}
	if [4]byte(b[:4]) != frameRespMagic {
		return nil, fmt.Errorf("serve: frame: bad response magic %q", b[:4])
	}
	out, rest, err := parseBits(b[4:])
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("serve: frame: %d trailing response bytes", len(rest))
	}
	return out, nil
}

func frameUvarint(b []byte, field string) (int, []byte, error) {
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, nil, fmt.Errorf("serve: frame: bad %s varint", field)
	}
	if v > maxFrameBits {
		return 0, nil, fmt.Errorf("serve: frame: %s %d out of range", field, v)
	}
	return int(v), b[k:], nil
}

// appendBits packs bits 8 per byte, LSB first, behind a uvarint count.
func appendBits(b []byte, bits []bool) []byte {
	b = binary.AppendUvarint(b, uint64(len(bits)))
	var cur byte
	for i, v := range bits {
		if v {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			b = append(b, cur)
			cur = 0
		}
	}
	if len(bits)%8 != 0 {
		b = append(b, cur)
	}
	return b
}

// parseBits reverses appendBits, returning the unconsumed tail. Padding
// bits in the final byte must be zero (one canonical encoding per bit
// vector).
func parseBits(b []byte) ([]bool, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, nil, fmt.Errorf("serve: frame: bad bit count varint")
	}
	if n > maxFrameBits {
		return nil, nil, fmt.Errorf("serve: frame: bit count %d out of range", n)
	}
	b = b[k:]
	nb := int(n+7) / 8
	if len(b) < nb {
		return nil, nil, fmt.Errorf("serve: frame: truncated bits: have %d bytes, want %d", len(b), nb)
	}
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = b[i/8]&(1<<(i%8)) != 0
	}
	for i := int(n); i < nb*8; i++ {
		if b[i/8]&(1<<(i%8)) != 0 {
			return nil, nil, fmt.Errorf("serve: frame: nonzero padding bit %d", i)
		}
	}
	return bits, b[nb:], nil
}
