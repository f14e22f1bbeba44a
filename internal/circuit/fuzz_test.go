package circuit

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzRead ensures the circuit deserializer never panics or produces an
// invalid circuit from arbitrary bytes: it either errors or yields a
// circuit whose invariants hold (Eval on a zero input must not panic).
func FuzzRead(f *testing.F) {
	// Seed with valid circuits of a few shapes.
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng)
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("TCM1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if c.NumInputs() > 1<<20 || c.Size() > 1<<22 {
			t.Skip("implausibly huge accepted circuit; skip evaluation")
		}
		in := make([]bool, c.NumInputs())
		vals := c.Eval(in)
		c.OutputValues(vals)
		_ = c.Energy(vals)
		_ = c.Stats()

		// An accepted circuit round-trips: its canonical encoding reads
		// back and re-encodes to the same bytes.
		var b1, b2 bytes.Buffer
		if _, err := c.WriteTo(&b1); err != nil {
			t.Fatal(err)
		}
		c2, err := Read(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("re-reading an accepted circuit: %v", err)
		}
		if _, err := c2.WriteTo(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("accepted circuit does not round-trip byte-identically")
		}
	})
}

// randomUnitCircuit is randomCircuit restricted to weights in {-1, 0,
// +1} with fan-in >= 4: every group qualifies for the evaluator's
// carry-save unit-weight fast path, which randomCircuit's mixed
// weights rarely exercise.
func randomUnitCircuit(rng *rand.Rand) *Circuit {
	nin := 4 + rng.Intn(6)
	b := NewBuilder(nin)
	nOps := 10 + rng.Intn(40)
	var last Wire = 0
	for i := 0; i < nOps; i++ {
		avail := int32(nin + b.Size())
		fanin := 4 + rng.Intn(8)
		ins := make([]Wire, fanin)
		ws := make([]int64, fanin)
		for j := range ins {
			ins[j] = Wire(rng.Int31n(avail))
			ws[j] = int64(rng.Intn(3) - 1)
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
			last = b.Gate(ins, ws, int64(rng.Intn(5)-2))
		}
	}
	b.MarkOutput(last)
	return b.Build()
}

// FuzzEvalBatch: the bit-sliced batch engine must be bit-for-bit
// identical to scalar Eval and EvalParallel on random circuits and
// random batches, across the 64-sample word boundary and both the
// sequential and pooled configurations. Negative seeds select the
// all-unit-weight circuit family (the carry-save fast path); the
// checked-in corpus under testdata/fuzz pins both families at batch
// sizes 1, 63, 64 and 65.
func FuzzEvalBatch(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(62))
	f.Add(int64(3), uint8(63))
	f.Add(int64(4), uint8(64))
	f.Add(int64(-1), uint8(0))
	f.Add(int64(-2), uint8(62))
	f.Add(int64(-3), uint8(63))
	f.Add(int64(-4), uint8(64))
	f.Fuzz(func(t *testing.T, seed int64, rawBatch uint8) {
		batch := int(rawBatch)%130 + 1
		rng := rand.New(rand.NewSource(seed))
		var c *Circuit
		if seed < 0 {
			c = randomUnitCircuit(rng)
		} else {
			c = randomCircuit(rng)
		}
		inputs := make([][]bool, batch)
		for s := range inputs {
			row := make([]bool, c.NumInputs())
			for i := range row {
				row[i] = rng.Intn(2) == 1
			}
			inputs[s] = row
		}
		for _, workers := range []int{1, 3} {
			e := NewEvaluator(c, workers)
			got := e.EvalBatch(inputs)
			for s, in := range inputs {
				want := c.Eval(in)
				par := c.EvalParallel(in, workers)
				for w := range want {
					if par[w] != want[w] {
						t.Fatalf("sample %d wire %d: EvalParallel diverges from Eval", s, w)
					}
					if got[s][w] != want[w] {
						t.Fatalf("sample %d wire %d workers %d: EvalBatch=%v Eval=%v",
							s, w, workers, got[s][w], want[w])
					}
				}
			}
			e.Close()
		}
	})
}

// FuzzRoundTrip: every circuit the builder can produce must round-trip
// bit-exactly.
func FuzzRoundTrip(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng)
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		c2, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		in := make([]bool, c.NumInputs())
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		a := c.Eval(in)
		b := c2.Eval(in)
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("round trip changed behaviour")
			}
		}
	})
}
