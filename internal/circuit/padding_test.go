package circuit

import (
	"math"
	"math/rand"
	"testing"
)

// paddingAuditCircuit builds a circuit engineered to expose padding
// leaks in the final partial 64-sample block. The bit-sliced kernel
// writes whole words: a gate whose threshold lies below every
// representable sum gets an all-ones plane, and the compare's sign-plane
// flip sets every lane, so each output must be masked to the batch.
//
//   - an always-firing unit-weight group (weights all +1, thresholds 0
//     and negative): its true output plane is all-ones, so any failure
//     to mask the tail produces 1-bits in padding lanes;
//   - a mixed-weight group (weights in [-3, 3]) whose threshold -1000
//     always fires, so the negative counter and the subtraction run;
//   - a clamp group: +1 weights whose thresholds sit on and just past
//     ±2^k for every width the sum can take, so the kernel answers some
//     gates from the width clamp (all-ones or all-zero, no compare) and
//     the rest through the compare at the edge of the range;
//   - a wrap group: math.MaxInt64 and math.MinInt64 weights, so the sum
//     needs all 64 planes and wraps modulo 2^64 as int64 does;
//   - a second level reading the first, so a leaked pad bit in level 1
//     would also corrupt the counters and thresholds downstream.
func paddingAuditCircuit(t *testing.T) *Circuit {
	t.Helper()
	const n = 40
	b := NewBuilder(n)
	ins := make([]Wire, n)
	for i := range ins {
		ins[i] = b.Input(i)
	}
	// All +1 weights; thresholds 0 and -3 always fire, n+1 never fires,
	// and n/2 depends on the sample.
	unitW := make([]int64, n)
	for i := range unitW {
		unitW[i] = 1
	}
	unit := b.GateGroup(ins, unitW, []int64{0, -3, int64(n) / 2, int64(n) + 1})
	// Mixed magnitudes; threshold -1000 always fires (its plane is
	// all-ones in a full block), 0 is sample-dependent.
	genW := make([]int64, n)
	for i := range genW {
		genW[i] = int64(i%7) - 3 // in [-3, 3], not all unit
	}
	gen := b.GateGroup(ins, genW, []int64{-1000, 0, 7})
	// Level 2 consumes every level-1 plane with non-unit weights so any
	// tail garbage above would feed straight into these sums.
	l2in := append(append([]Wire{}, unit...), gen...)
	l2w := []int64{5, -2, 3, 1, 2, -4, 1}
	top := b.GateGroup(l2in, l2w, []int64{1, 4, -2})
	for _, w := range top {
		b.MarkOutput(w)
	}
	for _, w := range unit {
		b.MarkOutput(w)
	}
	// A sum of k +1 weights takes at most 7 planes with the sign; a
	// threshold t <= -2^(width-1) fires everywhere and t >= 2^(width-1)
	// nowhere without a compare.
	var clampT []int64
	for k := 0; k <= 7; k++ {
		p := int64(1) << uint(k)
		clampT = append(clampT, -p-1, -p, -p+1, p-1, p, p+1)
	}
	for _, w := range b.GateGroup(ins, unitW, clampT) {
		b.MarkOutput(w)
	}
	wrapW := make([]int64, n)
	for i := range wrapW {
		wrapW[i] = []int64{math.MaxInt64, math.MinInt64, math.MaxInt64, 1}[i%4]
	}
	wrapT := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for _, w := range b.GateGroup(ins, wrapW, wrapT) {
		b.MarkOutput(w)
	}
	return b.Build()
}

// randomRows returns batch random input rows for c.
func randomRows(rng *rand.Rand, c *Circuit, batch int) [][]bool {
	rows := make([][]bool, batch)
	for s := range rows {
		row := make([]bool, c.NumInputs())
		for i := range row {
			row[i] = rng.Intn(2) == 1
		}
		rows[s] = row
	}
	return rows
}

// assertZeroTails fails if any wire plane of the final partial block
// has a bit set at or past the batch size.
func assertZeroTails(t *testing.T, p *Planes) {
	t.Helper()
	rem := p.batch % 64
	if rem == 0 && p.batch > 0 {
		return // no partial block
	}
	mask := uint64(1)<<uint(rem) - 1
	blk := p.batch / 64
	for w := 0; w < p.numWires; w++ {
		if word := p.words[blk*p.numWires+w]; word&^mask != 0 {
			t.Fatalf("batch %d: wire %d pad bits leaked: %#x (mask %#x)", p.batch, w, word&^mask, mask)
		}
	}
}

// The coalescing server evaluates ragged batches (whatever drained from
// the queue), so padding lanes in the final 64-sample word must never
// influence results nor escape in output planes. Pin that at the batch
// sizes that exercise every edge: single sample, one-short of a block,
// exactly one block, one block plus one, and two blocks minus one.
func TestEvalPlanesPaddingAudit(t *testing.T) {
	c := paddingAuditCircuit(t)
	ev := NewEvaluator(c, 1)
	defer ev.Close()
	rng := rand.New(rand.NewSource(42))
	for _, batch := range []int{1, 63, 64, 65, 127} {
		rows := randomRows(rng, c, batch)
		p := ev.EvalPlanes(PackBools(rows))

		// (a) every pad bit of every wire plane is zero.
		assertZeroTails(t, p)

		// (b) every sample is bit-identical to the direct single-sample
		// evaluation — padding never altered a real lane.
		for s, row := range rows {
			want := c.Eval(row)
			got := p.Assignment(s, nil)
			for w := range want {
				if got[w] != want[w] {
					t.Fatalf("batch %d sample %d wire %d: batched %v, direct %v", batch, s, w, got[w], want[w])
				}
			}
		}

		// (c) popcount reductions see only real samples: the threshold-0
		// unit gate always fires, so its CountTrue is exactly batch, not
		// rounded up to a word multiple.
		alwaysOn := c.Outputs()[3] // first wire of the unit group
		counts := p.CountTrue(alwaysOn, alwaysOn+1)
		var total int64
		for _, v := range counts {
			total += v
		}
		if total != int64(batch) {
			t.Fatalf("batch %d: always-firing gate counted %d times", batch, total)
		}
	}
}

// Reset+SetRow must re-establish the zero-tail invariant when a Planes
// is recycled across batches of shrinking size — the exact reuse
// pattern of the serve dispatcher. An all-true larger batch followed by
// a smaller one is the adversarial case: stale 1-bits would sit
// precisely in the new batch's padding lanes.
func TestPlanesResetSetRowReuse(t *testing.T) {
	c := paddingAuditCircuit(t)
	ev := NewEvaluator(c, 1)
	defer ev.Close()
	rng := rand.New(rand.NewSource(7))
	var in Planes
	allTrue := make([]bool, c.NumInputs())
	for i := range allTrue {
		allTrue[i] = true
	}
	// Seed the storage with 127 all-true samples, then shrink.
	in.Reset(c.NumInputs(), 127)
	for s := 0; s < 127; s++ {
		in.SetRow(s, allTrue)
	}
	for _, batch := range []int{127, 65, 64, 63, 1} {
		rows := randomRows(rng, c, batch)
		in.Reset(c.NumInputs(), batch)
		assertZeroTails(t, &in)
		for s, row := range rows {
			in.SetRow(s, row)
		}
		assertZeroTails(t, &in)
		p := ev.EvalPlanes(&in)
		assertZeroTails(t, p)
		for s, row := range rows {
			want := c.Eval(row)
			got := p.Assignment(s, nil)
			for w := range want {
				if got[w] != want[w] {
					t.Fatalf("reuse batch %d sample %d wire %d: batched %v, direct %v", batch, s, w, got[w], want[w])
				}
			}
		}
	}
}

// SetRow overwrites in both directions: flipping a previously-true row
// to a sparse one must clear the stale bits.
func TestPlanesSetRowOverwrites(t *testing.T) {
	var p Planes
	p.Reset(3, 65)
	p.SetRow(64, []bool{true, true, true})
	p.SetRow(64, []bool{false, true, false})
	if p.Get(0, 64) || !p.Get(1, 64) || p.Get(2, 64) {
		t.Fatal("SetRow did not overwrite previous row values")
	}
	assertZeroTails(t, &p)
}

// GatherInto must reuse destination storage across ragged batches
// without leaking either stale words or pad bits.
func TestGatherIntoReuse(t *testing.T) {
	c := paddingAuditCircuit(t)
	ev := NewEvaluator(c, 1)
	defer ev.Close()
	rng := rand.New(rand.NewSource(99))
	var dst *Planes
	for _, batch := range []int{127, 63, 65, 1, 64} {
		rows := randomRows(rng, c, batch)
		p := ev.EvalPlanes(PackBools(rows))
		dst = p.GatherInto(dst, c.Outputs())
		if dst.NumWires() != len(c.Outputs()) || dst.Batch() != batch {
			t.Fatalf("GatherInto shape %dx%d, want %dx%d", dst.NumWires(), dst.Batch(), len(c.Outputs()), batch)
		}
		assertZeroTails(t, dst)
		fresh := p.Gather(c.Outputs())
		for s := 0; s < batch; s++ {
			for i := range c.Outputs() {
				if dst.Get(Wire(i), s) != fresh.Get(Wire(i), s) {
					t.Fatalf("batch %d sample %d output %d: GatherInto disagrees with Gather", batch, s, i)
				}
			}
		}
	}
}
