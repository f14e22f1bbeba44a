package circuit

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomCircuit builds a random layered circuit with some gate groups
// and marked outputs.
func randomCircuit(rng *rand.Rand) *Circuit {
	nin := 2 + rng.Intn(6)
	b := NewBuilder(nin)
	nOps := 10 + rng.Intn(60)
	var last Wire = 0
	for i := 0; i < nOps; i++ {
		avail := int32(nin + b.Size())
		fanin := 1 + rng.Intn(5)
		ins := make([]Wire, fanin)
		ws := make([]int64, fanin)
		for j := range ins {
			ins[j] = Wire(rng.Int31n(avail))
			ws[j] = int64(rng.Intn(9) - 4)
		}
		if rng.Intn(3) == 0 {
			nT := 1 + rng.Intn(4)
			ts := make([]int64, nT)
			for j := range ts {
				ts[j] = int64(rng.Intn(7) - 3)
			}
			outs := b.GateGroup(ins, ws, ts)
			last = outs[len(outs)-1]
		} else {
			last = b.Gate(ins, ws, int64(rng.Intn(7)-3))
		}
		if rng.Intn(4) == 0 {
			b.MarkOutput(last)
		}
	}
	b.MarkOutput(last)
	return b.Build()
}

// Serialization round-trips: identical structure and identical behaviour
// on random inputs.
func TestSerializeRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng)
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			return false
		}
		c2, err := Read(&buf)
		if err != nil {
			return false
		}
		if c2.Size() != c.Size() || c2.Depth() != c.Depth() ||
			c2.Edges() != c.Edges() || c2.NumInputs() != c.NumInputs() ||
			len(c2.Outputs()) != len(c.Outputs()) {
			return false
		}
		for trial := 0; trial < 3; trial++ {
			in := make([]bool, c.NumInputs())
			for i := range in {
				in[i] = rng.Intn(2) == 1
			}
			v1 := c.Eval(in)
			v2 := c2.Eval(in)
			for i := range v1 {
				if v1[i] != v2[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Corrupted streams are rejected, not mis-loaded.
func TestReadRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := randomCircuit(rng)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Truncations at every eighth byte.
	for cut := 0; cut < len(good); cut += 8 {
		if _, err := Read(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Bad magic.
	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Flip wire references to out-of-range values: validate must catch
	// at least the blatant case of a huge wire id.
	bad = append([]byte{}, good...)
	// Header is 4 magic + 4*8 bytes; groups follow (5*8 each). Corrupt a
	// group's span start to a negative number.
	if len(bad) > 44 {
		for i := 36; i < 44; i++ {
			bad[i] = 0xff
		}
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Error("corrupted group span accepted")
		}
	}
}

// Prune removes gates unreachable from outputs and preserves output
// behaviour.
func TestPruneRemovesDeadGates(t *testing.T) {
	b := NewBuilder(2)
	useful := b.Gate([]Wire{0, 1}, []int64{1, 1}, 2)
	for i := 0; i < 10; i++ {
		b.Gate([]Wire{0}, []int64{1}, 1) // dead
	}
	out := b.Gate([]Wire{useful}, []int64{1}, 1)
	b.MarkOutput(out)
	c := b.Build()
	pruned, removed := c.Prune()
	if removed != 10 {
		t.Errorf("removed %d gates, want 10", removed)
	}
	if pruned.Size() != 2 {
		t.Errorf("pruned size %d, want 2", pruned.Size())
	}
	for mask := 0; mask < 4; mask++ {
		in := []bool{mask&1 != 0, mask&2 != 0}
		want := c.OutputValues(c.Eval(in))
		got := pruned.OutputValues(pruned.Eval(in))
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("mask %d: pruned output differs", mask)
			}
		}
	}
}

// Pruning a group keeps the shared span once and drops dead members.
func TestPrunePartialGroup(t *testing.T) {
	b := NewBuilder(3)
	outs := b.GateGroup([]Wire{0, 1, 2}, []int64{1, 1, 1}, []int64{1, 2, 3})
	final := b.Gate([]Wire{outs[0], outs[2]}, []int64{1, 1}, 2) // outs[1] dead
	b.MarkOutput(final)
	c := b.Build()
	pruned, removed := c.Prune()
	if removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	for mask := 0; mask < 8; mask++ {
		in := []bool{mask&1 != 0, mask&2 != 0, mask&4 != 0}
		if c.OutputValues(c.Eval(in))[0] != pruned.OutputValues(pruned.Eval(in))[0] {
			t.Fatalf("mask %d differs after partial-group prune", mask)
		}
	}
}

// Prune on a fully-live circuit is the identity (and returns the same
// instance).
func TestPruneNoDead(t *testing.T) {
	b := NewBuilder(2)
	g := b.Gate([]Wire{0, 1}, []int64{1, 1}, 1)
	b.MarkOutput(g)
	c := b.Build()
	pruned, removed := c.Prune()
	if removed != 0 || pruned != c {
		t.Error("prune of live circuit should be a no-op")
	}
}

// Property: pruning never changes designated outputs.
func TestPruneProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng)
		pruned, _ := c.Prune()
		for trial := 0; trial < 3; trial++ {
			in := make([]bool, c.NumInputs())
			for i := range in {
				in[i] = rng.Intn(2) == 1
			}
			a := c.OutputValues(c.Eval(in))
			b := pruned.OutputValues(pruned.Eval(in))
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
