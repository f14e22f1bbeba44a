package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// flatBytes canonicalizes a Built to its flat circuit encoding
// (circuit.WriteTo) — the byte-level identity oracle: two Builts are the
// same circuit iff their flat encodings match (the codec is
// deterministic and expands dictionary-shared circuits to the canonical
// layout).
func flatBytes(t *testing.T, b *core.Built) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := b.Circuit().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTCS2RoundTrip(t *testing.T) {
	for _, shape := range testShapes() {
		t.Run(shape.Key(), func(t *testing.T) {
			bt, err := core.BuildShape(shape, 0)
			if err != nil {
				t.Fatal(err)
			}
			data, err := EncodeTCS2(bt)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := DecodeTCS2(shape, data)
			if err != nil {
				t.Fatal(err)
			}
			// Deterministic re-encode: the decoded circuit must reproduce
			// the exact envelope (dictionaries re-intern identically), so
			// concurrent writers stay idempotent across load generations.
			data2, err := EncodeTCS2(rt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, data2) {
				t.Fatal("TCS2 re-encode is not byte-identical")
			}
			// Flat identity: expanding the compact circuit yields the
			// same TCM1 bytes as the original.
			if !bytes.Equal(flatBytes(t, bt), flatBytes(t, rt)) {
				t.Fatal("TCS2 round-trip changed the circuit")
			}
			// Bit-identical evaluation.
			seed := rand.New(rand.NewSource(5)).Int63()
			a := evalBatch(t, bt.Circuit(), rand.New(rand.NewSource(seed)), 65)
			b := evalBatch(t, rt.Circuit(), rand.New(rand.NewSource(seed)), 65)
			for i := range a {
				for j := range a[i] {
					if a[i][j] != b[i][j] {
						t.Fatalf("sample %d output %d differs after TCS2 reload", i, j)
					}
				}
			}
		})
	}
}

func TestTCS2SmallerThanFlat(t *testing.T) {
	// The 25% bar is asserted on the benchmarked N=16 artifact (see
	// cmd/tcbench's schema test); here just pin the direction at sizes
	// small enough for -short, where dictionary sharing already wins.
	shape := core.Shape{Op: core.OpMatMul, N: 8, Alg: "strassen"}
	bt, err := core.BuildShape(shape, 0)
	if err != nil {
		t.Fatal(err)
	}
	flat := flatBytes(t, bt)
	v2, err := EncodeTCS2(bt)
	if err != nil {
		t.Fatal(err)
	}
	if len(v2) >= len(flat) {
		t.Errorf("TCS2 %d bytes is not smaller than the flat encoding's %d bytes", len(v2), len(flat))
	}
}

// The exact bytes the encoder writes are pinned: a refactor of the
// codec or of the metadata layout must leave every artifact already in
// a cache directory byte-identical to what a fresh save would write.
func TestEncodeTCS2Golden(t *testing.T) {
	for _, tc := range []struct {
		shape  core.Shape
		sha256 string
	}{
		{core.Shape{Op: core.OpMatMul, N: 4, Alg: "strassen"}, "9285e086e3e04cfa196df858c2ef870ec2e320ab95b766f2076b3b135bd8be5b"},
		{core.Shape{Op: core.OpTrace, N: 4, Tau: 6, Alg: "strassen"}, "bb3ae8f203097b6542e78f7b57c7417f3ae1b7deb6fe2e35881d80b72c5736e5"},
	} {
		t.Run(tc.shape.Key(), func(t *testing.T) {
			bt, err := core.BuildShape(tc.shape, 0)
			if err != nil {
				t.Fatal(err)
			}
			data, err := EncodeTCS2(bt)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.sha256 {
				t.Errorf("EncodeTCS2 sha256 = %s, want %s", got, tc.sha256)
			}
		})
	}
}

func TestTCS2MappedMatchesHeap(t *testing.T) {
	shape := core.Shape{Op: core.OpMatMul, N: 8, Alg: "strassen", EntryBits: 2, Signed: true}
	bt, err := core.BuildShape(shape, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeTCS2(bt)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "artifact.tcs")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := MapCircuit(path, shape)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if mmapSupported && !m.Mapped() {
		t.Error("mmap-capable platform fell back to the heap decode")
	}
	heap, err := DecodeTCS2(shape, data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flatBytes(t, m.Built()), flatBytes(t, heap)) {
		t.Fatal("mapped circuit differs from heap-decoded circuit")
	}
	seed := rand.New(rand.NewSource(9)).Int63()
	a := evalBatch(t, m.Built().Circuit(), rand.New(rand.NewSource(seed)), 65)
	b := evalBatch(t, heap.Circuit(), rand.New(rand.NewSource(seed)), 65)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("sample %d output %d differs between mapped and heap load", i, j)
			}
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// Every byte flip anywhere in the envelope — header, any payload
// segment, leaf table, root, tail — must be rejected, never mis-loaded.
func TestTCS2FaultInjectionFlippedBytes(t *testing.T) {
	shape := core.Shape{Op: core.OpTrace, N: 4, Tau: 6, Alg: "strassen"}
	bt, err := core.BuildShape(shape, 0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := EncodeTCS2(bt)
	if err != nil {
		t.Fatal(err)
	}
	offsets := map[int]bool{}
	for i := 0; i < len(good) && i < 256; i++ {
		offsets[i] = true
	}
	for i := 256; i < len(good); i += 97 {
		offsets[i] = true
	}
	for i := len(good) - tcs2TailLen - 8; i < len(good); i++ {
		if i >= 0 {
			offsets[i] = true
		}
	}
	for off := range offsets {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x41
		if _, err := DecodeTCS2(shape, bad); err == nil {
			t.Fatalf("flipped byte at %d accepted", off)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flipped byte at %d: error %v does not wrap ErrCorrupt", off, err)
		}
	}
}

// Segment-level detection: damage inside each payload segment is caught
// by that segment's own leaf checksum, before any expansion.
func TestTCS2EverySegmentCovered(t *testing.T) {
	shape := core.Shape{Op: core.OpMatMul, N: 4, Alg: "strassen"}
	bt, err := core.BuildShape(shape, 0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := EncodeTCS2(bt)
	if err != nil {
		t.Fatal(err)
	}
	env, err := parseTCS2Envelope(good)
	if err != nil {
		t.Fatal(err)
	}
	off := env.payloadOff
	for i, s := range env.segs {
		if s.size == 0 {
			continue
		}
		bad := append([]byte(nil), good...)
		bad[off+s.size/2] ^= 0x01
		_, derr := DecodeTCS2(shape, bad)
		if derr == nil {
			t.Fatalf("segment %d (kind %d): single-bit damage accepted", i, s.kind)
		}
		if !strings.Contains(derr.Error(), "checksum mismatch") {
			t.Errorf("segment %d (kind %d): damage caught by %q, want the segment leaf", i, s.kind, derr)
		}
		off += s.size
	}
	// Tampering with a leaf itself is caught by the root.
	bad := append([]byte(nil), good...)
	bad[env.payloadOff+payloadLenOf(env)] ^= 0x01
	if _, derr := DecodeTCS2(shape, bad); derr == nil || !strings.Contains(derr.Error(), "root digest") {
		t.Errorf("leaf tampering caught by %v, want the root digest", derr)
	}
}

func payloadLenOf(env *tcs2Envelope) int64 {
	var n int64
	for _, s := range env.segs {
		n += s.size
	}
	return n
}

func TestTCS2Truncation(t *testing.T) {
	shape := core.Shape{Op: core.OpCount, N: 4, Alg: "strassen"}
	bt, err := core.BuildShape(shape, 0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := EncodeTCS2(bt)
	if err != nil {
		t.Fatal(err)
	}
	step := 1
	if len(good) > 4096 {
		step = 31
	}
	for cut := 0; cut < len(good); cut += step {
		if _, err := DecodeTCS2(shape, good[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: %v", cut, err)
		}
	}
	if _, err := DecodeTCS2(shape, append(append([]byte(nil), good...), 0xCC)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing garbage: %v", err)
	}
}

// A resealed envelope whose only change is the version field must be
// rejected with ErrVersion (intact file, wrong generation), not as
// damage.
func TestTCS2WrongVersionRejected(t *testing.T) {
	shape := core.Shape{Op: core.OpMatMul, N: 4, Alg: "strassen"}
	bt, err := core.BuildShape(shape, 0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := EncodeTCS2(bt)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[4] = FormatVersionTCS2 + 1
	resealed, ok := resealTCS2(bad)
	if !ok {
		t.Fatal("reseal failed on a well-formed envelope")
	}
	_, err = DecodeTCS2(shape, resealed)
	if !errors.Is(err, ErrVersion) {
		t.Errorf("version mismatch: %v, want ErrVersion", err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("ErrVersion must wrap ErrCorrupt, got %v", err)
	}
}

func TestStat(t *testing.T) {
	dir := t.TempDir()
	shape := core.Shape{Op: core.OpMatMul, N: 4, Alg: "strassen"}
	bt, err := core.BuildShape(shape, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := bt.Circuit()

	t.Run("tcs2", func(t *testing.T) {
		cache, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		path, err := cache.Save(bt)
		if err != nil {
			t.Fatal(err)
		}
		info, err := Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Format != FormatVersionTCS2 {
			t.Errorf("Format = %d, want %d", info.Format, FormatVersionTCS2)
		}
		if info.ShapeKey != shape.Key() {
			t.Errorf("ShapeKey = %q, want %q", info.ShapeKey, shape.Key())
		}
		if info.Gates != int64(c.Size()) || info.Inputs != int64(c.NumInputs()) {
			t.Errorf("gates/inputs = %d/%d, want %d/%d", info.Gates, info.Inputs, c.Size(), c.NumInputs())
		}
		if info.StoredEdges < 0 {
			t.Error("StoredEdges not reported")
		}
		if info.Outputs != int64(len(c.Outputs())) || info.Depth != int64(c.Depth()) {
			t.Errorf("outputs/depth = %d/%d, want %d/%d", info.Outputs, info.Depth, len(c.Outputs()), c.Depth())
		}
		if len(info.RootDigest) != 64 || info.Segments < 1 {
			t.Errorf("missing integrity summary: %+v", info)
		}
	})
	if _, err := Stat(filepath.Join(dir, "nope.tcs")); err == nil {
		t.Error("Stat of a missing file succeeded")
	}
	foreign := filepath.Join(dir, "foreign.tcs")
	if err := os.WriteFile(foreign, bytes.Repeat([]byte("TCM1"), 64), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Stat(foreign); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Stat of a non-TCS2 file: %v, want ErrCorrupt", err)
	}
}
