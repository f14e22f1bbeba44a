package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/arith"
	"repro/internal/circuit"
	"repro/internal/matrix"
)

// reserialize round-trips the flat circuit through the binary codec,
// simulating what the store does to the gates.
func reserialize(t *testing.T, c *circuit.Circuit) *circuit.Circuit {
	t.Helper()
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := circuit.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c2
}

// Meta→RestoreBuilt round-trips every op: the restored wrapper must
// behave identically to the original on real inputs.
func TestRestoreBuiltRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))

	t.Run("matmul", func(t *testing.T) {
		shape := Shape{Op: OpMatMul, N: 4, Alg: "strassen", EntryBits: 2, Signed: true}
		bt, err := BuildShape(shape, 0)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := RestoreBuilt(shape, reserialize(t, bt.Circuit()), bt.Meta())
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			a := matrix.Random(rng, 4, 4, -2, 2)
			b := matrix.Random(rng, 4, 4, -2, 2)
			want, err := bt.MatMul.Multiply(a, b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rt.MatMul.Multiply(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !want.Equal(got) {
				t.Fatalf("restored matmul differs:\n%v\nvs\n%v", want, got)
			}
		}
		if rt.MatMul.DepthBound() != bt.MatMul.DepthBound() {
			t.Error("depth bound not preserved")
		}
		if rt.MatMul.Audit.Total() != bt.MatMul.Audit.Total() {
			t.Error("audit not preserved")
		}
	})

	t.Run("trace", func(t *testing.T) {
		shape := Shape{Op: OpTrace, N: 4, Tau: 6, Alg: "strassen"}
		bt, err := BuildShape(shape, 0)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := RestoreBuilt(shape, reserialize(t, bt.Circuit()), bt.Meta())
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			adj := randomAdjacency(rng, 4, 0.6)
			want, err := bt.Trace.Decide(adj)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rt.Trace.Decide(adj)
			if err != nil {
				t.Fatal(err)
			}
			if want != got {
				t.Fatalf("restored trace decision differs on %v", adj)
			}
		}
	})

	t.Run("count", func(t *testing.T) {
		shape := Shape{Op: OpCount, N: 4, Alg: "strassen"}
		bt, err := BuildShape(shape, 0)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := RestoreBuilt(shape, reserialize(t, bt.Circuit()), bt.Meta())
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			adj := randomAdjacency(rng, 4, 0.6)
			want, err := bt.Count.Triangles(adj)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rt.Count.Triangles(adj)
			if err != nil {
				t.Fatal(err)
			}
			if want != got {
				t.Fatalf("restored count %d, want %d", got, want)
			}
		}
	})
}

// Corrupted or mismatched metadata must be rejected by RestoreBuilt's
// consistency checks, never silently accepted.
func TestRestoreBuiltRejectsMismatches(t *testing.T) {
	shape := Shape{Op: OpMatMul, N: 4, Alg: "strassen"}
	bt, err := BuildShape(shape, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := bt.Circuit()
	good := bt.Meta()

	cases := []struct {
		name   string
		shape  Shape
		mutate func(*BuiltMeta)
	}{
		{"wrong op", Shape{Op: OpCount, N: 4, Alg: "strassen"}, nil},
		{"wrong n", Shape{Op: OpMatMul, N: 8, Alg: "strassen"}, nil},
		// A wrong algorithm with the same T and input layout (e.g.
		// naive2) is structurally indistinguishable; binding the shape to
		// the payload is the store's job (fingerprint + checksummed
		// envelope). Layout-changing mismatches must still be caught:
		{"wrong entry bits", Shape{Op: OpMatMul, N: 4, Alg: "strassen", EntryBits: 2}, nil},
		{"wrong signedness", Shape{Op: OpMatMul, N: 4, Alg: "strassen", Signed: true}, nil},
		{"dropped rep", shape, func(m *BuiltMeta) { m.Reps = m.Reps[:len(m.Reps)-1] }},
		{"swapped wires", shape, func(m *BuiltMeta) {
			r := &m.Reps[0].Pos.Terms
			if len(*r) < 2 {
				t.Fatal("need two terms")
			}
			(*r)[0], (*r)[1] = (*r)[1], (*r)[0]
		}},
		{"negative weight", shape, func(m *BuiltMeta) { m.Reps[0].Pos.Terms[0].Weight = -1 }},
		{"out-of-range wire", shape, func(m *BuiltMeta) {
			m.Reps[0].Pos.Terms[0].Wire = circuit.Wire(c.NumInputs() + c.Size() + 10)
		}},
		{"bad schedule", shape, func(m *BuiltMeta) { m.Schedule = append(m.Schedule[:0:0], 0, 7) }},
		{"extra terms", shape, func(m *BuiltMeta) {
			m.Reps[0].Pos.Terms = append(m.Reps[0].Pos.Terms, arith.Term{Wire: 0, Weight: 1})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			meta := good
			if tc.mutate != nil {
				// Deep-copy the reps so mutations don't leak across cases.
				meta.Reps = make([]arith.Signed, len(good.Reps))
				for i, r := range good.Reps {
					meta.Reps[i] = arith.Signed{
						Pos: arith.Rep{Terms: append([]arith.Term(nil), r.Pos.Terms...), Max: r.Pos.Max},
						Neg: arith.Rep{Terms: append([]arith.Term(nil), r.Neg.Terms...), Max: r.Neg.Max},
					}
				}
				meta.Schedule = append(meta.Schedule[:0:0], good.Schedule...)
				tc.mutate(&meta)
			}
			if _, err := RestoreBuilt(tc.shape, c, meta); err == nil {
				t.Error("mismatch accepted")
			}
		})
	}
}
