package circuit

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkEvalPlanes times EvalPlanes on single-group circuits, one per
// group kind the paper's constructions produce, so each kind's cost per
// 64-sample block reads straight off the log:
//
//   - unit: a ~1,000-edge span of ±1 weights (Strassen/Winograd
//     coefficient layers);
//   - doubling: a ~2,000-edge span of doubling runs 1 2 4 8 16 2 4 8 …
//     (Lemma 3.1/3.2 product and sum layers, powers of two);
//   - bank: a Lemma 3.1-style bank of 1,024 gates with thresholds
//     1..1024 over one shared sum.
//
// Steady state allocates nothing (the evaluator owns all scratch).
func BenchmarkEvalPlanes(b *testing.B) {
	kinds := []struct {
		name       string
		nin        int
		weight     func(i int) int64
		thresholds []int64
	}{
		{"unit", 1000, func(i int) int64 { return int64(i%2*2 - 1) }, []int64{0}},
		{"doubling", 2000, func(i int) int64 { return int64(1) << uint(i%5+i/5%2) }, []int64{1 << 11}},
		{"bank", 1024, func(i int) int64 { return 1 }, seqThresholds(1024)},
	}
	for _, k := range kinds {
		bld := NewBuilder(k.nin)
		ins := make([]Wire, k.nin)
		ws := make([]int64, k.nin)
		for i := range ins {
			ins[i] = bld.Input(i)
			ws[i] = k.weight(i)
		}
		bld.GateGroup(ins, ws, k.thresholds)
		c := bld.Build()
		for _, batch := range []int{1, 64} {
			b.Run(fmt.Sprintf("%s/batch=%d", k.name, batch), func(b *testing.B) {
				e := NewEvaluator(c, 1)
				defer e.Close()
				in := PackBools(randomRows(rand.New(rand.NewSource(1)), c, batch))
				e.EvalPlanes(in)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.EvalPlanes(in)
				}
			})
		}
	}
}

// seqThresholds returns 1, 2, ..., n.
func seqThresholds(n int) []int64 {
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = int64(i + 1)
	}
	return ts
}
