package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	tcmm "repro"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/load"
	"repro/internal/serve"
	"repro/internal/store"
)

// The -cell mode is tcbench's machine-readable face: cmd/tcexp runs
// `tcbench -cell '{"experiment":"e24","n":8,"workers":2,...}'` once
// per grid sample, in a fresh process, and reads exactly one JSON
// object — {"metrics": {...}} — from stdout. Everything human
// (progress, build chatter) goes to stderr. Each cell is a single-shot
// measurement: repeats, warmup discards and mean/std/min aggregation
// belong to the caller, which is what makes the variance it reports
// across-process variance rather than in-process warmup drift.

// runCell executes one cell sample and prints its metrics.
func runCell(spec string) int {
	var cell exp.Cell
	if err := json.Unmarshal([]byte(spec), &cell); err != nil {
		fmt.Fprintf(os.Stderr, "tcbench -cell: bad spec: %v\n", err)
		return 2
	}
	if cell.N <= 0 {
		cell.N = 8
	}
	if cell.Workers <= 0 {
		cell.Workers = 1
	}
	if cell.Seconds <= 0 {
		cell.Seconds = 0.5
	}
	cells := map[string]func(exp.Cell) (map[string]float64, error){
		"e23": cellE23, "e24": cellE24, "e25": cellE25, "e26": cellE26, "e27": cellE27,
	}
	f, ok := cells[cell.Experiment]
	if !ok {
		fmt.Fprintf(os.Stderr, "tcbench -cell: unknown experiment %q\n", cell.Experiment)
		return 2
	}
	metrics, err := f(cell)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcbench -cell %s: %v\n", cell.Key(), err)
		return 1
	}
	out, err := json.Marshal(map[string]any{"metrics": metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcbench -cell: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// cellE23 — batched bit-sliced evaluation throughput: EvalPlanes over
// batch-64 blocks on the N-matmul circuit with the requested worker
// count, against a sequential-Eval reference rate.
func cellE23(cell exp.Cell) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(23))
	mc, err := tcmm.NewMatMul(cell.N, tcmm.Options{Alg: tcmm.Strassen()})
	if err != nil {
		return nil, err
	}
	const batch = 64
	inputs := make([][]bool, batch)
	for i := range inputs {
		a := tcmm.RandomBinaryMatrix(rng, cell.N, cell.N, 0.5)
		b := tcmm.RandomBinaryMatrix(rng, cell.N, cell.N, 0.5)
		if inputs[i], err = mc.Assign(a, b); err != nil {
			return nil, err
		}
	}
	ev := tcmm.NewEvaluator(mc.Circuit, cell.Workers)
	defer ev.Close()
	planes := tcmm.PackBools(inputs)

	budget := time.Duration(cell.Seconds * float64(time.Second))
	samples, start := 0, time.Now()
	for time.Since(start) < budget {
		ev.EvalPlanes(planes)
		samples += batch
	}
	rate := float64(samples) / time.Since(start).Seconds()
	return map[string]float64{
		"samples_per_sec": rate,
		"gates":           float64(mc.Circuit.Size()),
	}, nil
}

// cellE24 — one cold construction of the N-trace circuit with
// BuildWorkers=workers, plus the Uchizawa energy (gates fired) of the
// built decision circuit on a fixed seeded graph. Energy is
// deterministic given the seed, so any drift in it across runs of the
// same code is a correctness signal, not noise.
func cellE24(cell exp.Cell) (map[string]float64, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	tc, err := tcmm.NewTrace(cell.N, 6, tcmm.Options{Alg: tcmm.Strassen(), BuildWorkers: cell.Workers})
	if err != nil {
		return nil, err
	}
	buildSec := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	g := tcmm.ErdosRenyi(rand.New(rand.NewSource(24)), cell.N, 0.3)
	in, err := tc.Assign(g.Adjacency())
	if err != nil {
		return nil, err
	}
	vals := tc.Circuit.Eval(in)
	return map[string]float64{
		"build_sec":    buildSec,
		"alloc_mb":     float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		"mallocs":      float64(after.Mallocs - before.Mallocs),
		"gates":        float64(tc.Circuit.Size()),
		"energy_gates": float64(tc.Circuit.Energy(vals)),
	}, nil
}

// cellE25 — coalesced serving throughput: `workers` closed-loop
// clients against the in-process service with MaxBatch=64, every
// response checked bit-identical to a direct evaluation.
func cellE25(cell exp.Cell) (map[string]float64, error) {
	shape := core.Shape{Op: core.OpMatMul, N: cell.N, Alg: "strassen", EntryBits: 2, Signed: true}
	fmt.Fprintf(os.Stderr, "building %s ...\n", shape.Key())
	built, err := core.BuildShape(shape, -1)
	if err != nil {
		return nil, err
	}
	c := built.Circuit()
	outs := c.Outputs()
	ev := circuit.NewEvaluator(c, 1)
	defer ev.Close()

	const nSamples = 64
	rng := rand.New(rand.NewSource(25))
	ins := make([][]bool, nSamples)
	want := make([][]bool, nSamples)
	for i := range ins {
		in := make([]bool, c.NumInputs())
		for j := range in {
			in[j] = rng.Intn(2) == 1
		}
		ins[i] = in
		vals := ev.Eval(in)
		w := make([]bool, len(outs))
		for j, o := range outs {
			w[j] = vals[o]
		}
		want[i] = w
	}

	s := serve.New(serve.Config{MaxBatch: 64})
	defer s.Close()
	if _, err := s.Built(context.Background(), shape); err != nil {
		return nil, err
	}
	var (
		done      atomic.Bool
		completed atomic.Int64
		next      atomic.Int64
		mismatch  atomic.Int64
		wg        sync.WaitGroup
	)
	start := time.Now()
	for range cell.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				i := int(next.Add(1)-1) % nSamples
				out, err := s.Do(context.Background(), shape, ins[i])
				if err != nil {
					mismatch.Add(1)
					return
				}
				ok := len(out) == len(want[i])
				for j := range out {
					ok = ok && out[j] == want[i][j]
				}
				if !ok {
					mismatch.Add(1)
				}
				completed.Add(1)
			}
		}()
	}
	time.Sleep(time.Duration(cell.Seconds * float64(time.Second)))
	done.Store(true)
	wg.Wait()
	if mismatch.Load() > 0 {
		return nil, fmt.Errorf("%d responses not bit-identical to direct Eval", mismatch.Load())
	}
	sec := time.Since(start).Seconds()
	snap := s.Snapshot()
	meanBatch := 0.0
	if snap.Batches > 0 {
		meanBatch = float64(snap.Samples) / float64(snap.Batches)
	}
	return map[string]float64{
		"rps":        float64(completed.Load()) / sec,
		"mean_batch": meanBatch,
	}, nil
}

// cellE26 — store round-trip economics:
// save, cold load on a fresh cache, warm reload, artifact bytes.
func cellE26(cell exp.Cell) (map[string]float64, error) {
	shape := core.Shape{Op: core.OpMatMul, N: cell.N, Alg: "strassen", EntryBits: 2, Signed: true}
	fmt.Fprintf(os.Stderr, "building %s ...\n", shape.Key())
	built, err := core.BuildShape(shape, -1)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "tcbench-cell-e26-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	writer, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	path, err := writer.Save(built)
	if err != nil {
		return nil, err
	}
	saveSec := time.Since(start).Seconds()
	writer.Close()
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}

	reader, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer reader.Close()
	start = time.Now()
	if _, err := reader.Load(shape); err != nil {
		return nil, err
	}
	coldSec := time.Since(start).Seconds()
	start = time.Now()
	if _, err := reader.Load(shape); err != nil {
		return nil, err
	}
	warmSec := time.Since(start).Seconds()
	return map[string]float64{
		"save_sec":      saveSec,
		"load_cold_sec": coldSec,
		"load_warm_sec": warmSec,
		"bytes":         float64(fi.Size()),
	}, nil
}

// cellE27 — sharded-dispatch serving over the binary frame protocol:
// a closed-loop burst of 16 clients against Shards=workers, with
// latency quantiles; every response verified against direct Eval.
func cellE27(cell exp.Cell) (map[string]float64, error) {
	const clients = 16
	shape := core.Shape{Op: core.OpMatMul, N: cell.N, Alg: "strassen", EntryBits: 2, Signed: true}
	fmt.Fprintf(os.Stderr, "building %s ...\n", shape.Key())
	pool, err := load.NewPool(shape, 64, 27)
	if err != nil {
		return nil, err
	}
	s := serve.New(serve.Config{MaxBatch: 64, Shards: cell.Workers})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = clients
	if _, err := s.Built(context.Background(), shape); err != nil {
		return nil, err
	}

	var mismatch atomic.Int64
	res, err := load.Run(context.Background(), load.Options{
		Workers:  clients,
		Duration: time.Duration(cell.Seconds * float64(time.Second)),
		Seed:     27,
	}, func(ctx context.Context, rng *rand.Rand) error {
		ok, err := load.PostFrame(client, ts.URL, &pool.Samples[rng.Intn(len(pool.Samples))])
		if err != nil {
			return err
		}
		if !ok {
			mismatch.Add(1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if res.Err != nil {
		return nil, res.Err
	}
	if mismatch.Load() > 0 {
		return nil, fmt.Errorf("%d responses not bit-identical to direct Eval", mismatch.Load())
	}
	return map[string]float64{
		"rps":     res.RPS,
		"p50_us":  float64(res.Latency.Quantile(0.50)),
		"p99_us":  float64(res.Latency.Quantile(0.99)),
		"p999_us": float64(res.Latency.Quantile(0.999)),
	}, nil
}
