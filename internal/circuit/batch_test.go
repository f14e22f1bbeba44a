package circuit

import (
	"math/rand"
	"testing"
)

// randomBatch draws B random input assignments for c.
func randomBatch(rng *rand.Rand, c *Circuit, b int) [][]bool {
	in := make([][]bool, b)
	for s := range in {
		row := make([]bool, c.NumInputs())
		for i := range row {
			row[i] = rng.Intn(2) == 1
		}
		in[s] = row
	}
	return in
}

// checkBatchAgainstEval asserts EvalBatch ≡ Eval ≡ EvalParallel
// bit-for-bit on the given batch, for the given worker count.
func checkBatchAgainstEval(t *testing.T, c *Circuit, inputs [][]bool, workers int) {
	t.Helper()
	e := NewEvaluator(c, workers)
	defer e.Close()
	got := e.EvalBatch(inputs)
	if len(got) != len(inputs) {
		t.Fatalf("EvalBatch returned %d rows, want %d", len(got), len(inputs))
	}
	for s, in := range inputs {
		want := c.Eval(in)
		par := c.EvalParallel(in, workers)
		for w := range want {
			if want[w] != par[w] {
				t.Fatalf("sample %d wire %d: EvalParallel=%v Eval=%v", s, w, par[w], want[w])
			}
			if got[s][w] != want[w] {
				t.Fatalf("sample %d wire %d (workers=%d): EvalBatch=%v Eval=%v",
					s, w, workers, got[s][w], want[w])
			}
		}
	}
}

// The engine must agree with Eval at every batch size around the
// 64-sample word boundary, for random circuits, sequential and pooled.
func TestEvalBatchMatchesEval(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng)
		for _, b := range []int{1, 2, 63, 64, 65, 130} {
			for _, workers := range []int{1, 4} {
				checkBatchAgainstEval(t, c, randomBatch(rng, c, b), workers)
			}
		}
	}
}

// Zero-fan-in gates (constants) and multi-gate groups with an empty
// input span are the degenerate groups the engine must not trip on.
func TestEvalBatchEmptyGroups(t *testing.T) {
	b := NewBuilder(2)
	tru := b.Const(true)
	fls := b.Const(false)
	// A whole group with an empty span: fires iff 0 >= threshold.
	consts := b.GateGroup(nil, nil, []int64{-1, 0, 1})
	out := b.Gate([]Wire{b.Input(0), b.Input(1), tru, fls, consts[0], consts[2]},
		[]int64{2, -3, 1, 5, 1, 1}, 1)
	b.MarkOutput(out)
	c := b.Build()
	rng := rand.New(rand.NewSource(9))
	for _, batch := range []int{1, 63, 64, 65} {
		checkBatchAgainstEval(t, c, randomBatch(rng, c, batch), 1)
		checkBatchAgainstEval(t, c, randomBatch(rng, c, batch), 3)
	}
}

// Wide ±1 spans put 80 planes on one counter position; weights up to
// ±8 spread them over several. Exercise both at fan-ins that stress the
// counters' compressions.
func TestEvalBatchUnitWeightPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const nin = 80
	b := NewBuilder(nin)
	ins := make([]Wire, nin)
	unit := make([]int64, nin)
	mixed := make([]int64, nin)
	for i := range ins {
		ins[i] = b.Input(i)
		unit[i] = int64(rng.Intn(3) - 1) // {-1,0,1}
		mixed[i] = int64(rng.Intn(17) - 8)
	}
	u := b.GateGroup(ins, unit, []int64{-3, -1, 0, 1, 2, 5})
	g := b.GateGroup(ins, mixed, []int64{-7, 0, 9})
	comb := b.Gate([]Wire{u[0], u[3], u[5], g[0], g[2]}, []int64{1, 1, -1, 1, -1}, 1)
	b.MarkOutput(comb)
	c := b.Build()
	for _, batch := range []int{1, 64, 65, 200} {
		checkBatchAgainstEval(t, c, randomBatch(rng, c, batch), 1)
		checkBatchAgainstEval(t, c, randomBatch(rng, c, batch), 4)
	}
}

// EvalInto must match Eval and reuse the supplied storage.
func TestEvalInto(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomCircuit(rng)
	var scratch []bool
	for trial := 0; trial < 10; trial++ {
		in := randomBatch(rng, c, 1)[0]
		want := c.Eval(in)
		scratch = c.EvalInto(in, scratch)
		if len(scratch) != len(want) {
			t.Fatalf("EvalInto length %d, want %d", len(scratch), len(want))
		}
		for w := range want {
			if scratch[w] != want[w] {
				t.Fatalf("trial %d wire %d: EvalInto=%v Eval=%v", trial, w, scratch[w], want[w])
			}
		}
	}
	prev := &scratch[0]
	scratch = c.EvalInto(randomBatch(rng, c, 1)[0], scratch)
	if &scratch[0] != prev {
		t.Fatal("EvalInto reallocated despite sufficient capacity")
	}
}

// Evaluator.Eval reuses its scratch across calls.
func TestEvaluatorSingleEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := randomCircuit(rng)
	e := NewEvaluator(c, 1)
	defer e.Close()
	for trial := 0; trial < 5; trial++ {
		in := randomBatch(rng, c, 1)[0]
		want := c.Eval(in)
		got := e.Eval(in)
		for w := range want {
			if got[w] != want[w] {
				t.Fatalf("wire %d: Evaluator.Eval=%v Eval=%v", w, got[w], want[w])
			}
		}
	}
}

// The packed-plane pipeline: pack, evaluate, gather outputs, per-sample
// energy — all consistent with the scalar path.
func TestEvalPlanesPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randomCircuit(rng)
	const batch = 97
	inputs := randomBatch(rng, c, batch)
	e := NewEvaluator(c, 2)
	defer e.Close()
	p := e.EvalPlanes(PackBools(inputs))
	if p.Batch() != batch || p.NumWires() != c.NumInputs()+c.Size() {
		t.Fatalf("planes shape %dx%d", p.NumWires(), p.Batch())
	}
	energies := c.EnergyBatch(p)
	outs := p.Gather(c.Outputs())
	var scratch []bool
	for s, in := range inputs {
		want := c.Eval(in)
		scratch = p.Assignment(s, scratch)
		for w := range want {
			if scratch[w] != want[w] {
				t.Fatalf("sample %d wire %d: planes=%v Eval=%v", s, w, scratch[w], want[w])
			}
			if p.Get(Wire(w), s) != want[w] {
				t.Fatalf("sample %d wire %d: Get mismatch", s, w)
			}
		}
		if want := c.Energy(want); energies[s] != want {
			t.Fatalf("sample %d: EnergyBatch=%d Energy=%d", s, energies[s], want)
		}
		ov := c.OutputValues(want)
		for i := range ov {
			if outs.Get(Wire(i), s) != ov[i] {
				t.Fatalf("sample %d output %d: Gather mismatch", s, i)
			}
		}
	}
}

// The per-level firing-count hook: EnergyLevelsBatch must match the
// scalar EnergyByLevel on every sample, and its per-sample column sums
// must reproduce EnergyBatch exactly — the equality the serving layer's
// energy-budget mode relies on. Ragged batches straddle the word
// boundary.
func TestEnergyLevelsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := randomCircuit(rng)
	e := NewEvaluator(c, 2)
	defer e.Close()
	for _, batch := range []int{1, 63, 64, 65} {
		inputs := randomBatch(rng, c, batch)
		p := e.EvalPlanes(PackBools(inputs))
		byLevel := c.EnergyLevelsBatch(p)
		if len(byLevel) != c.Depth() {
			t.Fatalf("batch %d: %d levels, want depth %d", batch, len(byLevel), c.Depth())
		}
		totals := c.EnergyBatch(p)
		for s, in := range inputs {
			vals := c.Eval(in)
			want := c.EnergyByLevel(vals)
			var sum int64
			for l := range byLevel {
				if byLevel[l][s] != want[l] {
					t.Fatalf("batch %d sample %d level %d: EnergyLevelsBatch=%d EnergyByLevel=%d",
						batch, s, l+1, byLevel[l][s], want[l])
				}
				sum += byLevel[l][s]
			}
			if sum != totals[s] || sum != c.Energy(vals) {
				t.Fatalf("batch %d sample %d: level sum %d vs EnergyBatch %d vs Energy %d",
					batch, s, sum, totals[s], c.Energy(vals))
			}
		}
	}
}

// An evaluator is reusable across batches of different sizes, and the
// arena-borrowing contract (result invalidated by the next call) is
// honored by Clone.
func TestEvaluatorReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := randomCircuit(rng)
	e := NewEvaluator(c, 2)
	defer e.Close()
	first := randomBatch(rng, c, 70)
	kept := e.EvalPlanes(PackBools(first)).Clone()
	for _, batch := range []int{1, 64, 3, 129} {
		checkEvaluatorBatch(t, e, c, randomBatch(rng, c, batch))
	}
	// The clone still matches the first batch after all that reuse.
	for s, in := range first {
		want := c.Eval(in)
		for w := range want {
			if kept.Get(Wire(w), s) != want[w] {
				t.Fatalf("clone corrupted: sample %d wire %d", s, w)
			}
		}
	}
}

func checkEvaluatorBatch(t *testing.T, e *Evaluator, c *Circuit, inputs [][]bool) {
	t.Helper()
	got := e.EvalBatch(inputs)
	for s, in := range inputs {
		want := c.Eval(in)
		for w := range want {
			if got[s][w] != want[w] {
				t.Fatalf("sample %d wire %d: batch=%v want=%v", s, w, got[s][w], want[w])
			}
		}
	}
}

func TestEvalBatchEmptyAndMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := randomCircuit(rng)
	e := NewEvaluator(c, 1)
	defer e.Close()
	if out := e.EvalBatch(nil); out != nil {
		t.Fatalf("EvalBatch(nil) = %v, want nil", out)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EvalBatch accepted a row of the wrong width")
		}
	}()
	e.EvalBatch([][]bool{make([]bool, c.NumInputs()+1)})
}
