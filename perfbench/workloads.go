package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/serve"
	"repro/internal/stream"
)

const (
	setupMin    = 9               // set-ups per run, at least; setup_s is their median
	setupMax    = 40              // set-ups per run, at most
	setupTime   = 3 * time.Second // keep setting up until this much time has passed
	callers     = 2               // closed-loop callers, one connection each
	warmUp      = time.Second     // closed-loop time before sampling starts
	poolCases   = 64              // seeded input pairs per matmul workload
	batchSize   = 64              // samples per EvalPlanes call
	warmRespawn = 5               // warm restarts per cold start
	buildAll    = -1              // core.BuildShape workers: GOMAXPROCS, as tcserve
	maxCycles   = 8               // bound on cold-start cycles in one run
	minCycles   = 3               // cold-start cycles run even past --seconds
	rateChunk   = 100             // verified replies per throughput chunk
	batchChunk  = 8               // verified batch calls per throughput chunk
)

// loopResult is what a closed loop measured after its warm-up.
type loopResult struct {
	lat  []float64       // ms per verified reply
	done []time.Duration // completion time of each verified reply, from the end of the warm-up
}

// closedLoop runs n callers; each sends its next request only after
// the previous reply. Replies to requests sent during the warm-up are
// checked but not sampled. step sends one request, checks and tallies
// it, and returns the request's own latency and whether it verified.
func closedLoop(n int, warm, dur time.Duration, step func(caller int) (time.Duration, bool)) loopResult {
	from := time.Now().Add(warm)
	until := from.Add(dur)
	parts := make([]loopResult, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				sent := time.Now()
				if !sent.Before(until) {
					return
				}
				lat, ok := step(c)
				if ok && !sent.Before(from) {
					parts[c].lat = append(parts[c].lat, ms(lat))
					parts[c].done = append(parts[c].done, time.Since(from))
				}
			}
		}(c)
	}
	wg.Wait()
	var res loopResult
	for _, p := range parts {
		res.lat = append(res.lat, p.lat...)
		res.done = append(res.done, p.done...)
	}
	return res
}

// chunkRate is a throughput robust to short stalls: completions are cut
// into consecutive chunks of m, each chunk's rate is m over the time it
// took, and the median chunk rate is returned.
func chunkRate(done []time.Duration, m int) float64 {
	sorted := append([]time.Duration(nil), done...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var rates []float64
	var prev time.Duration
	for k := m - 1; k < len(sorted); k += m {
		if d := sorted[k] - prev; d > 0 {
			rates = append(rates, float64(m)/d.Seconds())
		}
		prev = sorted[k]
	}
	if len(rates) == 0 {
		return math.NaN()
	}
	return median(rates)
}

// windowRates is the completion rate in each whole window of width w,
// for the report: it shows drift within a run.
func windowRates(done []time.Duration, w time.Duration) []int {
	var counts []int
	for _, d := range done {
		k := int(d / w)
		for len(counts) <= k {
			counts = append(counts, 0)
		}
		counts[k]++
	}
	if len(counts) > 0 {
		counts = counts[:len(counts)-1] // the last window is partial
	}
	for i := range counts {
		counts[i] = int(float64(counts[i]) / w.Seconds())
	}
	return counts
}

// setServingMetrics records the end-to-end metrics of a closed-loop
// workload; rss holds the peak RSS of every child of the run.
func setServingMetrics(e *env, setups []float64, loop loopResult, rss []float64) error {
	if len(setups) == 0 || len(loop.lat) < 2*rateChunk {
		return fmt.Errorf("too few verified replies (%d set-ups, %d samples)", len(setups), len(loop.lat))
	}
	rps := chunkRate(loop.done, rateChunk)
	e.set("setup_s", median(setups), "s")
	e.set("p50_ms", quantile(loop.lat, 0.50), "ms")
	e.set("peak_rss_mb", mean(rss), "MB")
	e.notef("rps=%.1f (median over chunks of %d replies; %d samples); p50_ms=%.3f p90_ms=%.3f",
		rps, rateChunk, len(loop.lat), quantile(loop.lat, 0.5), quantile(loop.lat, 0.9))
	if len(loop.lat) >= 1000 {
		e.notef("p99_ms=%.3f", quantile(loop.lat, 0.99))
	} else {
		e.notef("p99_ms not reported: %d samples < 1000", len(loop.lat))
	}
	e.notef("rps per 5s window=%v", windowRates(loop.done, 5*time.Second))
	e.notef("setup_s samples=%v", setups)
	e.notef("peak_rss_mb per child=%v", rss)
	return nil
}

// evalFrames builds the client side of eval-matmul8: the circuit
// wrapper (to encode inputs and map output bits to entries), the
// seeded cases and their TCF1 frames.
func evalFrames(seed int64) (*core.MatMulCircuit, []matmulCase, [][]byte, error) {
	shape := matmulShape(8)
	bt, err := core.BuildShape(shape, buildAll)
	if err != nil {
		return nil, nil, nil, err
	}
	cases := matmulCases(seed, 8, poolCases)
	frames := make([][]byte, len(cases))
	for i, c := range cases {
		in, err := bt.MatMul.Assign(c.a, c.b)
		if err != nil {
			return nil, nil, nil, err
		}
		if frames[i], err = serve.EncodeFrame(shape, in); err != nil {
			return nil, nil, nil, err
		}
	}
	return bt.MatMul, cases, frames, nil
}

// setUp spawns tcserve children in turn and times spawn → first
// verified reply on each (first sends it). It stops all but the last
// child, which it returns for the load, and records each stopped
// child's peak RSS. A spawn's time varies by half from one to the next,
// so the median is taken over as many as fit in setupTime.
func setUp(e *env, first func(ch *child, i int) bool) (setups, rss []float64, ch *child, err error) {
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		c, err := startChild(e.tcserve)
		if err != nil {
			return nil, nil, nil, err
		}
		if first(c, i) {
			setups = append(setups, time.Since(t0).Seconds())
		}
		if enoughSetups(i+1, start) {
			return setups, rss, c, nil
		}
		if r, err := c.peakRSSMB(); err == nil {
			rss = append(rss, r)
		}
		c.stop()
	}
}

// enoughSetups reports whether n set-ups, begun at start, are enough.
func enoughSetups(n int, start time.Time) bool {
	return n >= setupMax || (n >= setupMin && time.Since(start) >= setupTime)
}

// closeClients drops every client's idle connection.
func closeClients(clients []*http.Client) {
	for _, cl := range clients {
		cl.CloseIdleConnections()
	}
}

// runEvalMatMul8: TCF1 frames for one hot shape on /v1/eval.
func runEvalMatMul8(e *env) error {
	mc, cases, frames, err := evalFrames(e.seed)
	if err != nil {
		return err
	}
	send := func(client *http.Client, ch *child, i int) (time.Duration, bool) {
		t0 := time.Now()
		err := postFrame(client, ch.url, frames[i], mc, cases[i].want)
		return time.Since(t0), e.tally.record(err) == nil
	}
	setups, rss, ch, err := setUp(e, func(c *child, i int) bool {
		client := newClient()
		defer client.CloseIdleConnections()
		_, ok := send(client, c, i%len(cases))
		return ok
	})
	if err != nil {
		return err
	}
	defer ch.stop()

	clients := make([]*http.Client, callers)
	rngs := make([]*rand.Rand, callers)
	for c := range clients {
		clients[c] = newClient()
		rngs[c] = rand.New(rand.NewSource(e.seed*31 + int64(c)))
	}
	defer closeClients(clients)
	cpu := startCPU()
	loop := closedLoop(callers, warmUp, e.seconds, func(c int) (time.Duration, bool) {
		return send(clients[c], ch, rngs[c].Intn(len(cases)))
	})
	e.tally.setCPU(cpu.share())
	r, err := ch.peakRSSMB()
	if err != nil {
		return err
	}
	return setServingMetrics(e, setups, loop, append(rss, r))
}

// postFrame sends one TCF1 frame to /v1/eval and checks the product.
func postFrame(client *http.Client, url string, frame []byte, mc *core.MatMulCircuit, want *matrix.Matrix) error {
	body, err := post(client, url+"/v1/eval", serve.FrameContentType, frame)
	if err != nil {
		return err
	}
	return checkFrameReply(mc, body, want)
}

// postGraph sends one /v1/graph request and checks the reply against
// the shadow.
func postGraph(client *http.Client, url string, r graphReq) error {
	body, err := post(client, url+"/v1/graph", serve.FrameContentType, r.frame)
	if err != nil {
		return err
	}
	got, err := stream.DecodeGraphResponse(body)
	if err != nil {
		return fmt.Errorf("%w: %v", errWrong, err)
	}
	return checkGraphReply(got, r.want)
}

// sendGraph times and tallies one postGraph.
func sendGraph(e *env, client *http.Client, url string, r graphReq) (time.Duration, bool) {
	t0 := time.Now()
	err := postGraph(client, url, r)
	return time.Since(t0), e.tally.record(err) == nil
}

// runGraphN8: 16 tenant sessions of 8-vertex graphs on /v1/graph.
func runGraphN8(e *env) error {
	ts := newTenantStreams(e.seed)
	creates := make([]graphReq, len(ts))
	for i, t := range ts {
		var err error
		if creates[i], err = t.create(); err != nil {
			return err
		}
	}
	// Set-up is spawn → first verified screen: tenant 0's create, which
	// builds the count circuit and screens the empty graph.
	setups, rss, ch, err := setUp(e, func(c *child, _ int) bool {
		client := newClient()
		defer client.CloseIdleConnections()
		_, ok := sendGraph(e, client, c.url, creates[0])
		return ok
	})
	if err != nil {
		return err
	}
	defer ch.stop()
	client := newClient()
	for _, r := range creates[1:] {
		sendGraph(e, client, ch.url, r)
	}
	client.CloseIdleConnections()

	// Caller c owns the tenants with index ≡ c (mod callers), so each
	// session's updates stay in order, and visits them round-robin.
	clients := make([]*http.Client, callers)
	turn := make([]int, callers)
	for c := range clients {
		clients[c] = newClient()
	}
	defer closeClients(clients)
	genErr := make([]error, callers)
	cpu := startCPU()
	loop := closedLoop(callers, warmUp, e.seconds, func(c int) (time.Duration, bool) {
		t := ts[c+callers*(turn[c]%(len(ts)/callers))]
		turn[c]++
		r, err := t.next()
		if err != nil {
			genErr[c] = err
			return 0, false
		}
		return sendGraph(e, clients[c], ch.url, r)
	})
	e.tally.setCPU(cpu.share())
	for _, err := range genErr {
		if err != nil {
			return err
		}
	}
	r, err := ch.peakRSSMB()
	if err != nil {
		return err
	}
	return setServingMetrics(e, setups, loop, append(rss, r))
}

// coldReply spawns tcserve on cacheDir and times spawn → first
// verified /v1/matmul reply; it returns the child still running.
func coldReply(e *env, cacheDir string, c matmulCase) (*child, time.Duration, bool, error) {
	body, err := matmulJSON(matmulShape(16), c)
	if err != nil {
		return nil, 0, false, err
	}
	t0 := time.Now()
	ch, err := startChild(e.tcserve, "-cache-dir", cacheDir)
	if err != nil {
		return nil, 0, false, err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	reply, err := post(client, ch.url+"/v1/matmul", "application/json", body)
	d := time.Since(t0)
	if err == nil {
		err = checkJSONReply(reply, c.want)
	}
	return ch, d, e.tally.record(err) == nil, nil
}

// runColdStart16: cycles of cold start (build and save) and warm
// restarts (mapped load) of tcserve for Strassen N=16.
func runColdStart16(e *env) error {
	cases := matmulCases(e.seed, 16, poolCases)
	var cold, warm, rss, rates []float64
	cpu := startCPU()
	start := time.Now()
	next := 0
	for cycle := 0; cycle < maxCycles && (cycle < minCycles || time.Since(start) < e.seconds); cycle++ {
		dir, err := os.MkdirTemp(e.work, "cache-")
		if err != nil {
			return err
		}
		var peak float64
		replies := 0
		t0 := time.Now()
		for k := 0; k <= warmRespawn; k++ {
			ch, d, ok, err := coldReply(e, dir, cases[next%len(cases)])
			next++
			if err != nil {
				return err
			}
			if r, err := ch.peakRSSMB(); err == nil && r > peak {
				peak = r
			}
			ch.stop()
			if k == 0 {
				// Flush the new artifact now, between measurements, so
				// its writeback does not land inside a warm restart. The
				// flush is the benchmark's, so the cycle does not count it.
				t1 := time.Now()
				if err := syncDir(dir); err != nil {
					return err
				}
				t0 = t0.Add(time.Since(t1))
			}
			if !ok {
				continue
			}
			replies++
			if k == 0 {
				cold = append(cold, d.Seconds())
			} else {
				warm = append(warm, ms(d))
			}
		}
		rates = append(rates, float64(replies)/time.Since(t0).Seconds())
		rss = append(rss, peak)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	e.tally.setCPU(cpu.share())
	if len(cold) == 0 || len(warm) == 0 {
		return fmt.Errorf("no verified replies (%d cold, %d warm)", len(cold), len(warm))
	}
	e.set("setup_s", median(cold), "s")
	e.set("p50_ms", median(warm), "ms")
	e.set("peak_rss_mb", mean(rss), "MB")
	e.notef("restart_s=%.4f (median of %d warm restarts); replies per second of cycle=%.4f (median over cycles); cold setup_s samples=%v",
		median(warm)/1000, len(warm), median(rates), cold)
	e.notef("peak_rss_mb per cycle=%v", rss)
	return nil
}

// syncDir flushes every file in dir to disk.
func syncDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, ent.Name()))
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// batchRunner is the in-process batched path: one goroutine, one
// single-worker evaluator, 64 seeded samples per EvalPlanes call.
type batchRunner struct {
	mc   *core.MatMulCircuit
	ev   *circuit.Evaluator
	in   *circuit.Planes
	out  *circuit.Planes
	row  []bool
	outs []circuit.Wire
}

func newBatchRunner() (*batchRunner, error) {
	bt, err := core.BuildShape(matmulShape(8), buildAll)
	if err != nil {
		return nil, err
	}
	c := bt.Circuit()
	return &batchRunner{mc: bt.MatMul, ev: circuit.NewEvaluator(c, 1), in: circuit.NewPlanes(c.NumInputs(), batchSize), outs: c.Outputs()}, nil
}

// call packs one batch, evaluates it and decodes every product.
func (b *batchRunner) call(inputs [][]bool) []*matrix.Matrix {
	b.in.Reset(b.mc.Circuit.NumInputs(), len(inputs))
	for i, in := range inputs {
		b.in.SetRow(i, in)
	}
	p := b.ev.EvalPlanes(b.in)
	b.out = p.GatherInto(b.out, b.outs)
	res := make([]*matrix.Matrix, len(inputs))
	for i := range inputs {
		b.row = b.out.Assignment(i, b.row)
		res[i] = b.mc.DecodeOutputs(b.row)
	}
	return res
}

// batchInputs assigns the seeded cases, batch by batch.
func batchInputs(mc *core.MatMulCircuit, cases []matmulCase) ([][][]bool, error) {
	inputs, err := matmulInputs(mc, cases)
	if err != nil {
		return nil, err
	}
	var batches [][][]bool
	for lo := 0; lo < len(inputs); lo += batchSize {
		batches = append(batches, inputs[lo:min(lo+batchSize, len(inputs))])
	}
	return batches, nil
}

// checkBatch tallies one call's products against the oracle.
func checkBatch(e *env, res []*matrix.Matrix, cases []matmulCase) bool {
	ok := true
	for i, r := range res {
		if e.tally.record(checkProduct(r, cases[i].want)) != nil {
			ok = false
		}
	}
	return ok
}

// runBatch64: the library's batched path, in process.
func runBatch64(e *env) error {
	const batches = 4
	cases := matmulCases(e.seed, 8, batches*batchSize)
	var setups []float64
	var br *batchRunner
	var inputs [][][]bool
	begin := time.Now()
	for i := 0; !enoughSetups(i, begin); i++ {
		// Set-up is build → first verified batch of products, each from
		// a heap returned to the OS, as a fresh process would start.
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		b, err := newBatchRunner()
		if err != nil {
			return err
		}
		built := time.Since(t0)
		if inputs == nil {
			if inputs, err = batchInputs(b.mc, cases); err != nil {
				return err
			}
		}
		k := i % batches
		t1 := time.Now()
		if checkBatch(e, b.call(inputs[k]), cases[k*batchSize:]) {
			setups = append(setups, (built + time.Since(t1)).Seconds())
		}
		br = b
	}
	var lat []float64
	var done []time.Duration
	cpu := startCPU()
	start := time.Now()
	for k := 0; time.Since(start) < e.seconds; k++ {
		t0 := time.Now()
		res := br.call(inputs[k%batches])
		d := time.Since(t0)
		if checkBatch(e, res, cases[(k%batches)*batchSize:]) {
			lat = append(lat, ms(d))
			done = append(done, time.Since(start))
		}
	}
	e.tally.setCPU(cpu.share())
	if len(setups) == 0 || len(lat) < 2*batchChunk {
		return fmt.Errorf("too few verified batches (%d set-ups, %d calls)", len(setups), len(lat))
	}
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return err
	}
	rate := batchSize * chunkRate(done, batchChunk)
	e.set("setup_s", median(setups), "s")
	e.set("p50_ms", quantile(lat, 0.5), "ms")
	e.set("peak_rss_mb", rss, "MB")
	e.notef("samples_per_s=%.1f (median over chunks of %d calls; %d calls); p50_ms=%.3f p90_ms=%.3f; setup_s samples=%v",
		rate, batchChunk, len(lat), quantile(lat, 0.5), quantile(lat, 0.9), setups)
	return nil
}
