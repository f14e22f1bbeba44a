package main

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// A reply that disagrees with the oracle in one output bit must count
// as a wrong answer, and so as a failure.
func TestCorruptedFrameReplyIsCounted(t *testing.T) {
	shape := matmulShape(2)
	bt, err := core.BuildShape(shape, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := matmulCases(7, 2, 1)[0]
	in, err := bt.MatMul.Assign(c.a, c.b)
	if err != nil {
		t.Fatal(err)
	}
	vals := bt.Circuit().Eval(in)
	outs := make([]bool, len(bt.Circuit().Outputs()))
	for i, w := range bt.Circuit().Outputs() {
		outs[i] = vals[w]
	}

	var tl tally
	if err := tl.record(checkFrameReply(bt.MatMul, serve.EncodeFrameResponse(outs), c.want)); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	for bit := range outs {
		bad := append([]bool(nil), outs...)
		bad[bit] = !bad[bit]
		if tl.record(checkFrameReply(bt.MatMul, serve.EncodeFrameResponse(bad), c.want)) == nil {
			t.Fatalf("reply with output bit %d flipped was accepted", bit)
		}
	}
	if tl.record(checkFrameReply(bt.MatMul, serve.EncodeFrameResponse(outs[1:]), c.want)) == nil {
		t.Fatal("short reply was accepted")
	}
	v := tl.snapshot()
	if v.attempted != int64(len(outs))+2 || v.wrong != int64(len(outs))+1 || v.failed() != v.wrong {
		t.Fatalf("tally %+v, want %d attempted and %d wrong", v, len(outs)+2, len(outs)+1)
	}
}

func TestCorruptedJSONReplyIsCounted(t *testing.T) {
	c := matmulCases(3, 4, 1)[0]
	good, _ := json.Marshal(map[string]any{"c": rows(c.want)})
	var tl tally
	if err := tl.record(checkJSONReply(good, c.want)); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	bad := c.want.Clone()
	bad.Data[5]++
	badJSON, _ := json.Marshal(map[string]any{"c": rows(bad)})
	tl.record(checkJSONReply(badJSON, c.want))
	tl.record(checkJSONReply([]byte(`{"c":[[1]]}`), c.want))
	if v := tl.snapshot(); v.wrong != 2 || v.attempted != 3 {
		t.Fatalf("tally %+v, want 2 wrong of 3", v)
	}
}

// A screened count that disagrees with the shadow bitset is wrong.
func TestCorruptedGraphReplyIsCounted(t *testing.T) {
	seq, err := graphSequence(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	var screened *graphReq
	for i := range seq {
		if seq[i].want.Screened && seq[i].want.Version > 0 {
			screened = &seq[i]
			break
		}
	}
	if screened == nil {
		t.Fatal("sequence has no screened update")
	}
	got := screened.want
	got.Energy = 123 // energy is not predicted by the shadow
	if err := checkGraphReply(got, screened.want); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	var tl tally
	got.Count++
	tl.record(checkGraphReply(got, screened.want))
	got = screened.want
	got.Version++
	tl.record(checkGraphReply(got, screened.want))
	if v := tl.snapshot(); v.wrong != 2 {
		t.Fatalf("tally %+v, want 2 wrong", v)
	}
}

func TestTallyClassifiesRefusals(t *testing.T) {
	var tl tally
	tl.record(&statusError{code: 429})
	tl.record(&statusError{code: 503})
	tl.record(&statusError{code: 400})
	tl.record(nil)
	v := tl.snapshot()
	if v.refused != 2 || v.errors != 1 || v.attempted != 4 || v.failFrac() != 0.75 {
		t.Fatalf("tally %+v", v)
	}
}

func TestQuantileIsExactNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{{0.5, 3}, {0.2, 1}, {0.21, 2}, {0.99, 5}, {1, 5}, {0, 1}} {
		if got := quantile(s, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 || !math.IsNaN(median(nil)) {
		t.Error("median")
	}
}

func TestChunkRate(t *testing.T) {
	var done []time.Duration
	for i := 1; i <= 40; i++ {
		done = append(done, time.Duration(i)*10*time.Millisecond) // 100/s
	}
	// One long stall lands in a single chunk and does not move the median.
	for i := 20; i < len(done); i++ {
		done[i] += time.Second
	}
	if got := chunkRate(done, 10); math.Abs(got-100) > 1e-9 {
		t.Fatalf("chunkRate = %v, want 100", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Req: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Req: 0, Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Req: 0, Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "a", Req: 0, Start: 90, End: 120}, // runs past its parent
	}
	sums := summarize(spans)
	if got := sums["request"].SelfMS * 1e6; math.Abs(got-(100-50-10)) > 1e-6 {
		t.Fatalf("request self = %v ns, want 40", got)
	}
	if sums["a"].Spans != 2 || sums["a"].Requests != 1 {
		t.Fatalf("a summary %+v", sums["a"])
	}
}
