package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/stream"
)

// Traced runs replay a fixed count of the workload's seeded requests.
// Every workload's traced run measures the same layers on its own
// inputs: the build and the store, the HTTP round trip (to a tcserve
// child, or to an in-process listener for the library workload), the
// in-process request path (frame codec, Server.Do, assign and decode)
// and both evaluator paths (scalar Eval and a 64-sample EvalPlanes).

const (
	tracedMatMul8  = 256 // requests replayed by the N=8 matmul workloads
	tracedUpdates  = 16  // updates per tenant replayed by graph-n8
	tracedMatMul16 = 5   // requests replayed by coldstart-matmul16
)

// layerRun collects one traced run's measurements.
type layerRun struct {
	e     *env
	tr    *tracer
	shape core.Shape
	cache *store.Cache // the run's own artifact store
	built *core.Built  // the circuit as loaded back from the store

	gates                                    int
	buildS, heapMB, saveS, loadS, artifactMB float64
	readyS, setupS                           float64 // spawn → healthy, spawn → first verified reply
	entryS                                   float64 // evaluators tcserve creates for a new circuit
	stats                                    serveStats
	cpuFrac                                  float64
	energy                                   int64
	overhead                                 float64
}

func newLayerRun(e *env, shape core.Shape) (*layerRun, error) {
	dir, err := os.MkdirTemp(e.work, "store-")
	if err != nil {
		return nil, err
	}
	cache, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return &layerRun{e: e, tr: newTracer(), shape: shape, cache: cache}, nil
}

func (l *layerRun) close() { l.cache.Close() }

// buildSaveLoad times the build (and the live heap it leaves), the
// save, and a load of the saved artifact after the built circuit has
// been released, which is what a warm restart pays.
func (l *layerRun) buildSaveLoad() error {
	if err := l.buildAndSave(); err != nil {
		return err
	}
	runtime.GC()
	debug.FreeOSMemory()
	var err error
	l.tr.timed("store.load", 0, -1, func() { l.built, err = l.cache.Load(l.shape) })
	if err != nil {
		return fmt.Errorf("load saved circuit: %w", err)
	}
	// tcserve readies a circuit with one evaluator per dispatcher shard
	// (GOMAXPROCS of them by default); that is part of its set-up.
	l.tr.timed("circuit.new_evaluator", 0, -1, func() { circuit.NewEvaluator(l.built.Circuit(), 1).Close() })
	sums := summarize(l.tr.snapshot())
	l.loadS = sums["store.load"].perSpan().Seconds()
	l.entryS = float64(runtime.GOMAXPROCS(0)) * sums["circuit.new_evaluator"].perSpan().Seconds()
	return nil
}

func (l *layerRun) buildAndSave() error {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var bt *core.Built
	var err error
	l.tr.timed("core.build", 0, -1, func() { bt, err = core.BuildShape(l.shape, buildAll) })
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	l.heapMB = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	l.gates = bt.Circuit().Size()
	var path string
	l.tr.timed("store.save", 0, -1, func() { path, err = l.cache.Save(bt) })
	if err != nil {
		return fmt.Errorf("save circuit: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	l.artifactMB = float64(fi.Size()) / (1 << 20)
	sums := summarize(l.tr.snapshot())
	l.buildS = sums["core.build"].perSpan().Seconds()
	l.saveS = sums["store.save"].perSpan().Seconds()
	return nil
}

// sender sends request i to a server and checks the reply.
type sender func(client *http.Client, url string, i int) error

// spawnFirst starts a tcserve child and times spawn → healthy and
// spawn → first verified reply (request 0).
func (l *layerRun) spawnFirst(send sender, flags ...string) (*child, error) {
	t0 := time.Now()
	var ch *child
	var err error
	l.tr.timed("child.start", 0, -1, func() { ch, err = startChild(l.e.tcserve, flags...) })
	if err != nil {
		return nil, err
	}
	l.readyS = time.Since(t0).Seconds()
	client := newClient()
	defer client.CloseIdleConnections()
	if err := l.e.tally.record(send(client, ch.url, 0)); err != nil {
		ch.stop()
		return nil, fmt.Errorf("first request: %w", err)
	}
	l.setupS = time.Since(t0).Seconds()
	return ch, nil
}

// replay sends requests 1..k-1 over HTTP, each from the caller that
// owns it, one span per round trip.
func (l *layerRun) replay(url string, k, n int, owner func(i int) int, send sender) {
	cpu := startCPU()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for i := 1; i < k; i++ {
				if owner(i) != c {
					continue
				}
				id := l.tr.begin("serve.http", 0, i)
				err := send(client, url, i)
				l.tr.end(id)
				l.e.tally.record(err)
			}
		}(c)
	}
	wg.Wait()
	l.cpuFrac = cpu.share()
	l.e.tally.setCPU(l.cpuFrac)
}

// readStats reads the serving counters from a child's /v1/stats.
func (l *layerRun) readStats(url string) error {
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, &l.stats)
}

// passes runs the in-process replay once to warm up and then four
// times, untraced, traced, traced, untraced, so that drift cancels out
// of the tracing overhead. Every pass must tally exactly the same
// energy.
func (l *layerRun) passes(run func() (int64, error)) error {
	l.tr.on = false
	want, err := run()
	if err != nil {
		return err
	}
	var plain, traced time.Duration
	for _, on := range []bool{false, true, true, false} {
		l.tr.on = on
		t0 := time.Now()
		got, err := run()
		if err != nil {
			return err
		}
		if on {
			traced += time.Since(t0)
		} else {
			plain += time.Since(t0)
		}
		if got != want {
			l.e.tally.record(fmt.Errorf("%w: energy %d in one pass, %d in another", errWrong, want, got))
		}
	}
	l.tr.on = true
	l.overhead = traced.Seconds()/plain.Seconds() - 1
	l.energy = want
	return nil
}

// planes times a 64-sample EvalPlanes call on the workload's inputs,
// checks each sample's outputs against the oracle, and checks the
// batched energy of each sample against the scalar path's.
func (l *layerRun) planes(inputs [][]bool, calls int, check func(s int, outs []bool) error) {
	c := l.built.Circuit()
	ev := circuit.NewEvaluator(c, 1)
	defer ev.Close()
	in := circuit.PackBools(inputs)
	var p *circuit.Planes
	for k := 0; k < calls; k++ {
		l.tr.timed("circuit.eval_planes", 0, -1, func() { p = ev.EvalPlanes(in) })
	}
	out := p.Gather(c.Outputs())
	energies := c.EnergyBatch(p)
	var row []bool
	for s := range inputs {
		row = out.Assignment(s, row)
		err := check(s, row)
		if err == nil {
			if scalar := c.Energy(ev.Eval(inputs[s])); scalar != energies[s] {
				err = fmt.Errorf("%w: sample %d energy %d batched, %d scalar", errWrong, s, energies[s], scalar)
			}
		}
		l.e.tally.record(err)
	}
}

// finish turns the spans into the per-layer metrics. pipeline names
// the in-process spans that make up the server's work for one request,
// so the HTTP layer's share is the round trip minus their sum; stages
// is what set-up should add up to.
func (l *layerRun) finish(pipeline []string, stages float64) error {
	e := l.e
	spans := l.tr.snapshot()
	sums := summarize(spans)
	requests := sums["request"]
	if requests == nil || sums["serve.http"] == nil {
		return fmt.Errorf("traced run recorded no requests")
	}
	var server time.Duration
	for _, n := range pipeline {
		if s := sums[n]; s != nil {
			server += time.Duration(s.TotalMS * float64(time.Millisecond) / float64(requests.Spans))
		}
	}
	httpUS := us(sums["serve.http"].perSpan() - server)

	e.set("circuit.gates", float64(l.gates), "count")
	e.set("circuit.energy_gates", float64(l.energy), "count")
	e.set("circuit.eval_us", us(sums["circuit.eval"].perSpan()), "us")
	e.set("circuit.eval_planes_ms", ms(sums["circuit.eval_planes"].perSpan()), "ms")
	e.set("core.build_s", l.buildS, "s")
	e.set("core.circuit_heap_mb", l.heapMB, "MB")
	e.set("core.assign_us", us(sums["core.assign"].perSpan()), "us")
	e.set("core.decode_us", us(sums["core.decode"].perSpan()), "us")
	e.set("store.save_s", l.saveS, "s")
	e.set("store.load_s", l.loadS, "s")
	e.set("store.artifact_mb", l.artifactMB, "MB")
	e.set("serve.do_us", us(sums["serve.do"].perSpan()), "us")
	e.set("serve.frame_us", us(sums["serve.frame"].perRequest()), "us")
	e.set("serve.http_us", httpUS, "us")
	var batchMean, singletonFrac float64
	if l.stats.Batches > 0 {
		batchMean = float64(l.stats.Samples) / float64(l.stats.Batches)
		singletonFrac = float64(l.stats.Singletons) / float64(l.stats.Batches)
	}
	e.set("serve.batch_mean", batchMean, "count")
	e.set("serve.singleton_frac", singletonFrac, "ratio")
	e.set("serve.rejected", float64(l.stats.Rejected), "count")
	e.set("client.cpu_frac", l.cpuFrac, "ratio")
	e.set("trace.overhead_frac", l.overhead, "ratio")
	e.set("trace.setup_gap_frac", (l.setupS-stages)/l.setupS, "ratio")

	for _, n := range []string{"stream.update", "stream.screen"} {
		if s := sums[n]; s != nil {
			e.notef("%s_us=%.2f over %d calls", n, us(s.perSpan()), s.Spans)
		}
	}
	if s := sums["stream.frame"]; s != nil {
		e.notef("stream.frame_us=%.2f per request", us(s.perRequest()))
	}
	e.notef("setup_s=%.4f vs stage sum %.4f (gap %.1f%%)", l.setupS, stages, 100*(l.setupS-stages)/l.setupS)
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Strings(names)
	e.notef("%-22s %7s %12s %12s", "span", "calls", "total_ms", "self_ms")
	for _, n := range names {
		s := sums[n]
		e.notef("%-22s %7d %12.3f %12.3f", n, s.Spans, s.TotalMS, s.SelfMS)
	}
	path, err := writeTrace(e, spans, sums)
	if err != nil {
		return err
	}
	e.notef("spans written to %s", path)
	return nil
}

// matmulPipeline replays k requests through the in-process request
// path (assign, frame decode, Server.Do, frame encode, decode) and,
// for each verified one, the scalar evaluator on the same input.
func matmulPipeline(e *env, tr *tracer, srv *serve.Server, bt *core.Built, ev *circuit.Evaluator, cases []matmulCase, k int) (int64, error) {
	shape, mc, c := bt.Shape, bt.MatMul, bt.Circuit()
	ctx := context.Background()
	var energy int64
	for i := 0; i < k; i++ {
		cs := cases[i%len(cases)]
		var in, got, out []bool
		var prod *matrix.Matrix
		var err error
		root := tr.begin("request", 0, i)
		tr.timed("core.assign", root, i, func() { in, err = mc.Assign(cs.a, cs.b) })
		var frame []byte
		if err == nil {
			frame, err = serve.EncodeFrame(shape, in)
		}
		if err == nil {
			tr.timed("serve.frame", root, i, func() { _, got, err = serve.DecodeFrame(frame) })
		}
		if err == nil {
			tr.timed("serve.do", root, i, func() { out, err = srv.Do(ctx, shape, got) })
		}
		if err == nil {
			tr.timed("serve.frame", root, i, func() { _ = serve.EncodeFrameResponse(out) })
			tr.timed("core.decode", root, i, func() { prod = mc.DecodeOutputs(out) })
			err = checkProduct(prod, cs.want)
		}
		tr.end(root)
		if e.tally.record(err) != nil {
			continue
		}
		var vals []bool
		layers := tr.begin("layers", 0, i)
		tr.timed("circuit.eval", layers, i, func() { vals = ev.Eval(in) })
		tr.end(layers)
		energy += c.Energy(vals)
	}
	return energy, nil
}

// matmulInputs assigns every case.
func matmulInputs(mc *core.MatMulCircuit, cases []matmulCase) ([][]bool, error) {
	inputs := make([][]bool, len(cases))
	for i, c := range cases {
		in, err := mc.Assign(c.a, c.b)
		if err != nil {
			return nil, err
		}
		inputs[i] = in
	}
	return inputs, nil
}

func checkMatMulOutputs(mc *core.MatMulCircuit, cases []matmulCase) func(int, []bool) error {
	return func(s int, outs []bool) error { return checkProduct(mc.DecodeOutputs(outs), cases[s].want) }
}

// inProcessServer is the server the in-process replays call: it loads
// the circuit from the run's store, as a warm tcserve would.
func (l *layerRun) inProcessServer() *serve.Server {
	return serve.New(serve.Config{Cache: l.cache, BuildWorkers: buildAll})
}

func traceEvalMatMul8(e *env) error {
	mc, cases, _, err := evalFrames(e.seed)
	if err != nil {
		return err
	}
	inputs, err := matmulInputs(mc, cases)
	if err != nil {
		return err
	}
	l, err := newLayerRun(e, matmulShape(8))
	if err != nil {
		return err
	}
	defer l.close()
	send := frameSender(matmulShape(8), mc, inputs, cases)
	ch, err := l.spawnFirst(send)
	if err != nil {
		return err
	}
	l.replay(ch.url, tracedMatMul8, callers, func(i int) int { return i % callers }, send)
	err = l.readStats(ch.url)
	ch.stop()
	if err != nil {
		return err
	}
	if err := l.buildSaveLoad(); err != nil {
		return err
	}
	srv := l.inProcessServer()
	defer srv.Close()
	ev := circuit.NewEvaluator(l.built.Circuit(), 1)
	defer ev.Close()
	if err := l.passes(func() (int64, error) {
		return matmulPipeline(e, l.tr, srv, l.built, ev, cases, tracedMatMul8)
	}); err != nil {
		return err
	}
	l.planes(inputs, 3, checkMatMulOutputs(l.built.MatMul, cases))
	rtt := summarize(l.tr.snapshot())["serve.http"].perSpan().Seconds()
	return l.finish([]string{"serve.frame", "serve.do"}, l.readyS+l.buildS+l.entryS+rtt)
}

// graphPipeline replays the sequence through a fresh in-process
// session manager: frame decode, create or update, screen, frame
// encode. Each screened request is then screened again layer by layer
// (assign, Server.DoEnergy, decode, scalar Eval), and the count and
// the energy must agree across the paths.
func graphPipeline(e *env, tr *tracer, srv *serve.Server, bt *core.Built, ev *circuit.Evaluator, seq []graphReq) (int64, error) {
	m := stream.NewManager(stream.Config{Server: srv, MaxN: graphN})
	defer m.Close()
	ctx := context.Background()
	cc, c := bt.Count, bt.Circuit()
	var energy int64
	for i, r := range seq {
		var req stream.GraphRequest
		var res stream.Result
		var err error
		root := tr.begin("request", 0, i)
		tr.timed("stream.frame", root, i, func() { req, err = stream.DecodeGraphRequest(r.frame) })
		if err == nil {
			switch req.Op {
			case stream.OpCreate:
				tr.timed("stream.create", root, i, func() { res, err = m.Create(ctx, req.Tenant, req.N, req.Tau) })
			default:
				tr.timed("stream.update", root, i, func() { res, err = m.Update(ctx, req.Tenant, req.Ops, false, false) })
			}
		}
		if err == nil && req.Screen {
			tr.timed("stream.screen", root, i, func() { res, err = m.Screen(ctx, req.Tenant, req.Energy) })
		}
		resp := stream.GraphResponse{
			Screened: res.Screened, Decision: res.Decision, HasEnergy: res.Screened && req.Energy,
			Version: res.Version, Edges: res.Edges, Count: res.Count, Energy: res.Energy,
		}
		if err == nil {
			tr.timed("stream.frame", root, i, func() { _ = stream.EncodeGraphResponse(resp) })
			err = checkGraphReply(resp, r.want)
		}
		tr.end(root)
		if e.tally.record(err) != nil || !req.Screen {
			continue
		}
		var in, out, vals []bool
		var gates, count int64
		layers := tr.begin("layers", 0, i)
		tr.timed("core.assign", layers, i, func() { in, err = cc.Assign(r.adj) })
		if err == nil {
			tr.timed("serve.do", layers, i, func() { out, gates, err = srv.DoEnergy(ctx, bt.Shape, in) })
		}
		if err == nil {
			// The /v1/eval frame codec on the same input, for comparison
			// with the TCG1 codec this workload uses.
			var frame []byte
			if frame, err = serve.EncodeFrame(bt.Shape, in); err == nil {
				tr.timed("serve.frame", layers, i, func() { _, _, err = serve.DecodeFrame(frame) })
				tr.timed("serve.frame", layers, i, func() { _ = serve.EncodeFrameResponse(out) })
			}
		}
		if err == nil {
			tr.timed("core.decode", layers, i, func() { count, err = cc.DecodeTriangles(out) })
			tr.timed("circuit.eval", layers, i, func() { vals = ev.Eval(in) })
		}
		tr.end(layers)
		if err == nil {
			if scalar := c.Energy(vals); count != r.want.Count || gates != resp.Energy || scalar != resp.Energy {
				err = fmt.Errorf("%w: request %d: count %d (want %d), energy %d via Server.DoEnergy, %d via Screen, %d via Eval",
					errWrong, i, count, r.want.Count, gates, resp.Energy, scalar)
			}
		}
		e.tally.record(err)
		energy += resp.Energy
	}
	return energy, nil
}

func traceGraphN8(e *env) error {
	seq, err := graphSequence(e.seed, tracedUpdates)
	if err != nil {
		return err
	}
	l, err := newLayerRun(e, countShape(graphN))
	if err != nil {
		return err
	}
	defer l.close()
	send := graphSender(seq)
	ch, err := l.spawnFirst(send)
	if err != nil {
		return err
	}
	l.replay(ch.url, len(seq), callers, func(i int) int { return seq[i].tenant % callers }, send)
	err = l.readStats(ch.url)
	ch.stop()
	if err != nil {
		return err
	}
	if err := l.buildSaveLoad(); err != nil {
		return err
	}
	srv := l.inProcessServer()
	defer srv.Close()
	ev := circuit.NewEvaluator(l.built.Circuit(), 1)
	defer ev.Close()
	if err := l.passes(func() (int64, error) { return graphPipeline(e, l.tr, srv, l.built, ev, seq) }); err != nil {
		return err
	}
	var inputs [][]bool
	var want []int64
	for _, r := range seq {
		if r.adj == nil || len(inputs) == batchSize {
			continue
		}
		in, err := l.built.Count.Assign(r.adj)
		if err != nil {
			return err
		}
		inputs = append(inputs, in)
		want = append(want, r.want.Count)
	}
	l.planes(inputs, 3, func(s int, outs []bool) error {
		got, err := l.built.Count.DecodeTriangles(outs)
		if err != nil {
			return fmt.Errorf("%w: %v", errWrong, err)
		}
		if got != want[s] {
			return fmt.Errorf("%w: batched sample %d counts %d triangles, shadow %d", errWrong, s, got, want[s])
		}
		return nil
	})
	rtt := summarize(l.tr.snapshot())["serve.http"].perSpan().Seconds()
	return l.finish([]string{"stream.frame", "stream.create", "stream.update", "stream.screen"}, l.readyS+l.buildS+l.entryS+rtt)
}

// graphSender posts seq[i] and checks the reply against the shadow.
func graphSender(seq []graphReq) sender {
	return func(client *http.Client, url string, i int) error { return postGraph(client, url, seq[i]) }
}

func traceColdStart16(e *env) error {
	shape := matmulShape(16)
	cases := matmulCases(e.seed, 16, batchSize)
	l, err := newLayerRun(e, shape)
	if err != nil {
		return err
	}
	defer l.close()
	send := func(client *http.Client, url string, i int) error {
		body, err := matmulJSON(shape, cases[i%len(cases)])
		if err != nil {
			return err
		}
		reply, err := post(client, url+"/v1/matmul", "application/json", body)
		if err != nil {
			return err
		}
		return checkJSONReply(reply, cases[i%len(cases)].want)
	}
	// The child runs first and alone: a cold N=16 build is the largest
	// allocation in the benchmark, and the in-process build below is
	// the same size.
	dir, err := os.MkdirTemp(e.work, "cache-")
	if err != nil {
		return err
	}
	ch, err := l.spawnFirst(send, "-cache-dir", dir)
	if err != nil {
		return err
	}
	l.replay(ch.url, tracedMatMul16, 1, func(int) int { return 0 }, send)
	err = l.readStats(ch.url)
	ch.stop()
	if err != nil {
		return err
	}
	t0 := time.Now()
	warm, err := startChild(e.tcserve, "-cache-dir", dir)
	if err != nil {
		return err
	}
	client := newClient()
	err = e.tally.record(send(client, warm.url, 0))
	restart := time.Since(t0)
	client.CloseIdleConnections()
	warm.stop()
	if err != nil {
		return err
	}
	e.notef("restart_s=%.4f", restart.Seconds())

	if err := l.buildSaveLoad(); err != nil {
		return err
	}
	srv := l.inProcessServer()
	defer srv.Close()
	ev := circuit.NewEvaluator(l.built.Circuit(), 1)
	defer ev.Close()
	if err := l.passes(func() (int64, error) {
		return matmulPipeline(e, l.tr, srv, l.built, ev, cases, tracedMatMul16-1)
	}); err != nil {
		return err
	}
	inputs, err := matmulInputs(l.built.MatMul, cases)
	if err != nil {
		return err
	}
	l.planes(inputs, 1, checkMatMulOutputs(l.built.MatMul, cases))
	rtt := summarize(l.tr.snapshot())["serve.http"].perSpan().Seconds()
	return l.finish([]string{"core.assign", "serve.do", "core.decode"}, l.readyS+l.buildS+l.saveS+l.entryS+rtt)
}

func traceBatch64(e *env) error {
	cases := matmulCases(e.seed, 8, batchSize)
	l, err := newLayerRun(e, matmulShape(8))
	if err != nil {
		return err
	}
	defer l.close()

	// Set-up as the untraced run measures it: build → first verified
	// batch of products.
	t0 := time.Now()
	br, err := newBatchRunner()
	if err != nil {
		return err
	}
	inputs, err := matmulInputs(br.mc, cases)
	if err != nil {
		return err
	}
	if !checkBatch(e, br.call(inputs), cases) {
		return fmt.Errorf("first batch did not verify")
	}
	l.setupS = time.Since(t0).Seconds()
	br.ev.Close()

	if err := l.buildSaveLoad(); err != nil {
		return err
	}
	srv := l.inProcessServer()
	defer srv.Close()
	// The library workload has no server; its samples are sent as
	// frames to an in-process listener so the HTTP layer is measured on
	// the same inputs.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	mc := l.built.MatMul
	send := frameSender(l.built.Shape, mc, inputs, cases)
	url := "http://" + ln.Addr().String()
	client := newClient()
	err = e.tally.record(send(client, url, 0))
	client.CloseIdleConnections()
	if err == nil {
		l.replay(url, batchSize, callers, func(i int) int { return i % callers }, send)
	}
	snap := srv.Snapshot()
	l.stats = serveStats{Batches: snap.Batches, Samples: snap.Samples, Singletons: snap.Singletons, Rejected: snap.Rejected}
	hs.Close()
	<-served
	if err != nil {
		return err
	}

	ev := circuit.NewEvaluator(l.built.Circuit(), 1)
	defer ev.Close()
	if err := l.passes(func() (int64, error) {
		return matmulPipeline(e, l.tr, srv, l.built, ev, cases, batchSize)
	}); err != nil {
		return err
	}
	l.planes(inputs, 3, checkMatMulOutputs(mc, cases))
	planes := summarize(l.tr.snapshot())["circuit.eval_planes"].perSpan().Seconds()
	return l.finish([]string{"serve.frame", "serve.do"}, l.buildS+planes)
}

// frameSender posts input i as a TCF1 frame and checks the product.
func frameSender(shape core.Shape, mc *core.MatMulCircuit, inputs [][]bool, cases []matmulCase) sender {
	return func(client *http.Client, url string, i int) error {
		frame, err := serve.EncodeFrame(shape, inputs[i%len(inputs)])
		if err != nil {
			return err
		}
		return postFrame(client, url, frame, mc, cases[i%len(cases)].want)
	}
}
