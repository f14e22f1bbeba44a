package circuit

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// dictify converts a canonical circuit into Raw dictionary form the way
// the TCS2 encoder does: relative wire patterns and weight spans are
// deduplicated, groups keep (pattern, base, weight-span) references.
func dictify(t *testing.T, c *Circuit) Raw {
	t.Helper()
	r := Raw{NumInputs: c.NumInputs()}
	patIdx := map[string]int64{}  // pattern key -> offset in r.Wires
	spanIdx := map[string]int64{} // weight key -> offset in r.Weights
	c.VisitGroups(func(gv GroupView) {
		var base Wire
		rel := make([]Wire, len(gv.RawWires))
		if len(gv.RawWires) > 0 {
			base = gv.WireBase + gv.RawWires[0]
			for i, w := range gv.RawWires {
				rel[i] = gv.WireBase + w - base
			}
		}
		pk := fmt.Sprint(rel)
		off, ok := patIdx[pk]
		if !ok {
			off = int64(len(r.Wires))
			patIdx[pk] = off
			r.Wires = append(r.Wires, rel...)
		}
		wk := fmt.Sprint(gv.Weights)
		wOff, ok := spanIdx[wk]
		if !ok {
			wOff = int64(len(r.Weights))
			spanIdx[wk] = wOff
			r.Weights = append(r.Weights, gv.Weights...)
		}
		r.Groups = append(r.Groups, RawGroup{
			InStart:   off,
			InEnd:     off + int64(len(rel)),
			WOff:      wOff,
			GateCount: int32(len(gv.Thresholds)),
			Level:     int32(gv.Level),
			WireBase:  base,
		})
		r.Thresholds = append(r.Thresholds, gv.Thresholds...)
	})
	r.Outputs = append([]Wire(nil), c.Outputs()...)
	return r
}

// testCircuit builds a small circuit with heavy pattern repetition
// (the structure dictionary sharing exploits), constants (empty spans),
// negative and non-unit weights, and multi-gate groups.
func testCircuit(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder(8)
	tw := b.Const(true)
	var layer1 []Wire
	for i := 0; i < 4; i++ {
		ws := b.GateGroup(
			[]Wire{b.Input(2 * i), b.Input(2*i + 1), tw},
			[]int64{1, -1, 2},
			[]int64{0, 1, 2},
		)
		layer1 = append(layer1, ws...)
	}
	var layer2 []Wire
	for i := 0; i+3 < len(layer1); i += 2 {
		layer2 = append(layer2, b.Gate(
			[]Wire{layer1[i], layer1[i+1], layer1[i+3]},
			[]int64{3, -7, 5},
			1,
		))
	}
	out := b.Gate(layer2, []int64{1, 1, 1, 1, 1}, 2)
	b.MarkOutput(out)
	b.MarkOutput(layer1[0])
	return b.Build()
}

func TestAssembleEquivalence(t *testing.T) {
	c := testCircuit(t)
	sc, err := Assemble(dictify(t, c))
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if got, want := sc.Stats(), c.Stats(); got != want {
		t.Fatalf("Stats diverge: got %+v want %+v", got, want)
	}
	if len(sc.wires) >= len(c.wires) {
		t.Errorf("dictionary form did not shrink: %d stored vs %d parallel", len(sc.wires), len(c.wires))
	}

	rng := rand.New(rand.NewSource(7))
	var rows [][]bool
	for s := 0; s < 130; s++ {
		in := make([]bool, c.NumInputs())
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		rows = append(rows, in)
		want := c.Eval(in)
		if got := sc.Eval(in); !reflect.DeepEqual(got, want) {
			t.Fatalf("Eval diverges on sample %d", s)
		}
		if got := sc.EvalParallel(in, 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("EvalParallel diverges on sample %d", s)
		}
	}
	ev, sev := NewEvaluator(c, 2), NewEvaluator(sc, 2)
	defer ev.Close()
	defer sev.Close()
	want := ev.EvalPlanes(PackBools(rows))
	got := sev.EvalPlanes(PackBools(rows))
	if !reflect.DeepEqual(got.words, want.words) {
		t.Fatal("EvalPlanes diverges")
	}

	// Inspection surfaces must see identical gates.
	type gate struct {
		ins []Wire
		ws  []int64
		th  int64
		lvl int
	}
	collect := func(cc *Circuit) []gate {
		var out []gate
		cc.VisitGates(func(g int, ins []Wire, ws []int64, th int64, lvl int) {
			out = append(out, gate{append([]Wire(nil), ins...), append([]int64(nil), ws...), th, lvl})
		})
		return out
	}
	if !reflect.DeepEqual(collect(sc), collect(c)) {
		t.Fatal("VisitGates diverges")
	}
	for g := 0; g < c.Size(); g++ {
		if !reflect.DeepEqual(sc.Gate(g), c.Gate(g)) {
			t.Fatalf("Gate(%d) diverges", g)
		}
	}

	// Re-serialization must canonicalize back to the exact TCM1 bytes.
	var cb, scb bytes.Buffer
	if _, err := c.WriteTo(&cb); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.WriteTo(&scb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cb.Bytes(), scb.Bytes()) {
		t.Fatal("shared circuit serializes differently from canonical")
	}

	// Splicing a shared circuit must equal splicing the canonical one.
	splice := func(src *Circuit) *Circuit {
		sb := NewBuilder(src.NumInputs())
		outs := sb.Splice(src, nil)
		for _, o := range outs {
			sb.MarkOutput(o)
		}
		return sb.Build()
	}
	a, bb := splice(c), splice(sc)
	var ab2, bb2 bytes.Buffer
	if _, err := a.WriteTo(&ab2); err != nil {
		t.Fatal(err)
	}
	if _, err := bb.WriteTo(&bb2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab2.Bytes(), bb2.Bytes()) {
		t.Fatal("spliceShared result differs from canonical splice")
	}
}

func TestAssembleRejectsBadParts(t *testing.T) {
	c := testCircuit(t)
	base := dictify(t, c)
	mutate := func(f func(*Raw)) Raw {
		r := base
		r.Groups = append([]RawGroup(nil), base.Groups...)
		r.Outputs = append([]Wire(nil), base.Outputs...)
		f(&r)
		return r
	}
	cases := map[string]Raw{
		"span past arena":  mutate(func(r *Raw) { r.Groups[0].InEnd = int64(len(r.Wires)) + 1 }),
		"negative span":    mutate(func(r *Raw) { r.Groups[2].InStart = -1 }),
		"weights past end": mutate(func(r *Raw) { r.Groups[2].WOff = int64(len(r.Weights)) }),
		"zero gate count":  mutate(func(r *Raw) { r.Groups[1].GateCount = 0 }),
		"level zero":       mutate(func(r *Raw) { r.Groups[1].Level = 0 }),
		"level absurd":     mutate(func(r *Raw) { r.Groups[1].Level = 1 << 30 }),
		"forward wire":     mutate(func(r *Raw) { r.Groups[1].WireBase = Wire(r.NumInputs) + 40 }),
		"negative wire":    mutate(func(r *Raw) { r.Groups[2].WireBase = -100 }),
		"output range":     mutate(func(r *Raw) { r.Outputs[0] = Wire(r.NumInputs + len(r.Thresholds)) }),
		"gate overflow":    mutate(func(r *Raw) { r.Groups[0].GateCount = int32(len(r.Thresholds)) + 1 }),
	}
	for name, r := range cases {
		if _, err := Assemble(r); err == nil {
			t.Errorf("%s: Assemble accepted corrupt parts", name)
		}
	}
	if _, err := Assemble(base); err != nil {
		t.Errorf("pristine parts rejected: %v", err)
	}
}
