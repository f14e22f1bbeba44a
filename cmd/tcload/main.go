// Command tcload is an open-loop load generator for tcserve (see
// internal/load and DESIGN.md "Sharded dispatch and the load harness").
//
//	tcload -url http://localhost:8714 -rate 2000 -duration 30s
//	tcload -url http://localhost:8714 -workers 64 -frame=false   # closed-loop JSON
//	tcload -graph -graph-tenants 64 -url http://localhost:8714   # streaming /v1/graph updates
//	tcload -smoke -url http://localhost:8714                     # CI regression gate
//	tcload -probe -url http://localhost:8714                     # exit 0 iff /healthz is 200
//
// The default -url honors TCSERVE_PORT, the same variable tcserve and
// the smoke scripts read, so a non-default port needs setting once.
//
// Shape popularity is Zipf-distributed over the rank-ordered -shapes
// list (rank 0 most popular), the arrival process is Poisson at -rate
// (0 = closed loop), and latency is measured from each request's
// scheduled arrival, so queue delay under overload shows up in the
// p99/p999 columns instead of silently throttling the generator
// (coordinated omission). Inputs are precomputed by building each shape
// locally, which also yields ground truth: with -check every response
// is verified against a direct scalar evaluation.
//
// -smoke is the CI gate: a short closed-loop frame-protocol burst whose
// throughput must reach -min-rps-frac of the committed
// BENCH_serve.json e27 baseline. It skips (exit 0) when GOMAXPROCS < 2
// — the sharded-vs-coalesced comparison is only meaningful with real
// parallelism.
package main

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/load"
	"repro/internal/stream"
)

func main() { os.Exit(run()) }

// defaultURL derives the default -url from TCSERVE_PORT so tcload,
// tcserve and the smoke scripts agree on the port from one variable.
func defaultURL() string {
	if port := os.Getenv("TCSERVE_PORT"); port != "" {
		return "http://localhost:" + port
	}
	return "http://localhost:8714"
}

func run() int {
	var (
		url      = flag.String("url", defaultURL(), "tcserve base URL (default honors TCSERVE_PORT)")
		workers  = flag.Int("workers", 64, "concurrent request workers")
		rate     = flag.Float64("rate", 0, "target arrivals/sec, Poisson (0 = closed loop)")
		duration = flag.Duration("duration", 10*time.Second, "run length (ignored when -requests is set)")
		requests = flag.Int64("requests", 0, "stop after this many requests (0 = run for -duration)")
		zipfS    = flag.Float64("zipf-s", 1.3, "shape-popularity Zipf exponent (> 1)")
		shapes   = flag.String("shapes", "matmul:8,count:4,trace:4:2",
			"rank-ordered op:n[:tau] list, most popular first")
		frame   = flag.Bool("frame", true, "binary /v1/eval protocol (false = JSON endpoints)")
		check   = flag.Bool("check", true, "verify responses against direct local evaluation")
		samples = flag.Int("samples", 64, "precomputed request samples per shape")
		seed    = flag.Int64("seed", 1, "RNG seed (workload is deterministic given the seed)")
		jsonOut = flag.Bool("json", false, "emit the result as one JSON object on stdout")
		smoke   = flag.Bool("smoke", false,
			"CI regression gate: 3s closed-loop frame burst vs the committed baseline")
		baseline = flag.String("baseline", "BENCH_serve.json", "baseline file for -smoke")
		minFrac  = flag.Float64("min-rps-frac", 0.5,
			"-smoke fails below this fraction of the baseline e27 frame-mode rps")
		probe = flag.Bool("probe", false,
			"GET -url/healthz once and exit 0/1 — a curl-free readiness probe for scripts")
		graphMode = flag.Bool("graph", false,
			"streaming mode: per-tenant /v1/graph edge updates with shadow-oracle recount checks")
		graphTenants = flag.Int("graph-tenants", 16, "-graph: concurrent tenant sessions")
		graphN       = flag.Int("graph-n", 8, "-graph: vertices per tenant graph (power of two)")
		graphTau     = flag.Int64("graph-tau", 3, "-graph: triangle-screening threshold")
		graphBatch   = flag.Int("graph-batch", 8, "-graph: edge ops per update frame")
		graphEnergy  = flag.Bool("graph-energy", true, "-graph: request per-screen energy accounting")
	)
	flag.Parse()

	if *probe {
		return probeHealth(*url)
	}

	if *graphMode {
		return graphRun(*url, graphOptions{
			tenants: *graphTenants, n: *graphN, tau: *graphTau,
			batch: *graphBatch, energy: *graphEnergy, check: *check,
			workers: *workers, rate: *rate, duration: *duration,
			requests: *requests, seed: *seed, jsonOut: *jsonOut,
		})
	}

	if *smoke {
		if gmp := runtime.GOMAXPROCS(0); gmp < 2 {
			fmt.Printf("tcload: smoke skipped: GOMAXPROCS=%d (sharded dispatch needs >= 2 cores)\n", gmp)
			return 0
		}
		*rate, *duration, *requests, *frame, *check = 0, 3*time.Second, 0, true, true
	}

	shapeList, err := parseShapes(*shapes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcload: %v\n", err)
		return 2
	}
	pools := make([]*load.Pool, len(shapeList))
	for i, sh := range shapeList {
		fmt.Fprintf(os.Stderr, "tcload: building %s ...\n", sh.Key())
		if pools[i], err = load.NewPool(sh, *samples, *seed+int64(100*i)); err != nil {
			fmt.Fprintf(os.Stderr, "tcload: build %s: %v\n", sh.Key(), err)
			return 2
		}
	}
	cdf := make([]float64, len(pools))
	if len(pools) > 1 {
		if *zipfS <= 1 {
			fmt.Fprintf(os.Stderr, "tcload: -zipf-s must be > 1 with multiple shapes\n")
			return 2
		}
		acc := 0.0
		for i, p := range load.PMF(*zipfS, len(pools)) {
			acc += p
			cdf[i] = acc
		}
	} else {
		cdf[0] = 1
	}

	// Persistent connections: one keepalive slot per worker, so steady
	// state pays no TCP/TLS setup per request.
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: *workers, MaxIdleConns: *workers},
		Timeout:   60 * time.Second,
	}

	var mismatches atomic.Int64
	res, err := load.Run(context.Background(), load.Options{
		Workers: *workers, Rate: *rate, Duration: *duration, Count: *requests, Seed: *seed,
	}, func(ctx context.Context, rng *rand.Rand) error {
		rank := 0
		u := rng.Float64()
		for rank < len(cdf)-1 && u > cdf[rank] {
			rank++
		}
		pool := pools[rank]
		sm := &pool.Samples[rng.Intn(len(pool.Samples))]
		var ok bool
		var perr error
		if *frame {
			ok, perr = load.PostFrame(client, *url, sm)
		} else {
			ok, perr = load.PostJSON(client, *url, pool, sm)
		}
		if perr != nil {
			return perr
		}
		if *check && !ok {
			mismatches.Add(1)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcload: %v\n", err)
		return 2
	}

	identical := mismatches.Load() == 0
	if *jsonOut {
		out, _ := json.Marshal(map[string]any{
			"sent": res.Sent, "ok": res.OK, "failed": res.Failed,
			"seconds": res.Elapsed.Seconds(), "rps": res.RPS,
			"p50_us": res.Latency.Quantile(0.50), "p99_us": res.Latency.Quantile(0.99),
			"p999_us": res.Latency.Quantile(0.999), "max_us": res.Latency.Max(),
			"identical": identical, "gomaxprocs": runtime.GOMAXPROCS(0),
		})
		fmt.Println(string(out))
	} else {
		loop := "closed"
		if *rate > 0 {
			loop = fmt.Sprintf("open @ %.0f/s", *rate)
		}
		fmt.Printf("tcload: %s loop, %d workers, %d shapes, %s\n", loop, *workers, len(pools),
			map[bool]string{true: "frame", false: "json"}[*frame])
		fmt.Printf("  sent %d  ok %d  failed %d  in %.2fs  =>  %.0f rps\n",
			res.Sent, res.OK, res.Failed, res.Elapsed.Seconds(), res.RPS)
		fmt.Printf("  latency µs: p50 %d  p99 %d  p999 %d  max %d\n",
			res.Latency.Quantile(0.50), res.Latency.Quantile(0.99),
			res.Latency.Quantile(0.999), res.Latency.Max())
		if *check {
			fmt.Printf("  identical: %v\n", identical)
		}
	}

	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "tcload: %d requests failed (first: %v)\n", res.Failed, res.Err)
		return 1
	}
	if *check && !identical {
		fmt.Fprintf(os.Stderr, "tcload: %d responses differ from direct evaluation\n", mismatches.Load())
		return 1
	}
	if *smoke {
		return smokeVerdict(*baseline, *minFrac, res.RPS)
	}
	return 0
}

type graphOptions struct {
	tenants, n, batch, workers int
	tau, requests, seed        int64
	rate                       float64
	duration                   time.Duration
	energy, check, jsonOut     bool
}

// graphRun drives the streaming /v1/graph endpoint: each tenant session
// is owned by a GraphStream whose shadow bitset is the ground-truth
// triangle recount, and (with -check) every screened response must
// match it bit for bit. Streams circulate through a channel so a
// tenant's updates stay strictly ordered while any worker may carry
// any tenant — the same per-tenant serialization the service enforces.
func graphRun(url string, o graphOptions) int {
	if o.tenants < 1 || o.batch < 1 {
		fmt.Fprintf(os.Stderr, "tcload: -graph-tenants and -graph-batch must be >= 1\n")
		return 2
	}
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: o.workers, MaxIdleConns: o.workers},
		Timeout:   60 * time.Second,
	}

	// Tenant names carry a per-run prefix so a run never collides with
	// the sessions of an earlier or concurrent run on the same server,
	// and every session this run opened is closed when it ends, so runs
	// do not pile sessions up in the server's LRU.
	prefix, err := runPrefix()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcload: %v\n", err)
		return 2
	}
	var opened []*load.GraphStream
	defer func() {
		for _, gs := range opened {
			if _, err := load.PostGraph(client, url, stream.GraphRequest{Op: stream.OpClose, Tenant: gs.Tenant}); err != nil {
				fmt.Fprintf(os.Stderr, "tcload: close %s: %v\n", gs.Tenant, err)
			}
		}
	}()
	pool := make(chan *load.GraphStream, o.tenants)
	for i := 0; i < o.tenants; i++ {
		gs := load.NewGraphStream(fmt.Sprintf("%s-tenant-%03d", prefix, i), o.n, o.tau, o.seed+int64(1000*i))
		gs.Energy = o.energy
		if _, err := load.PostGraph(client, url, gs.CreateRequest()); err != nil {
			fmt.Fprintf(os.Stderr, "tcload: create %s: %v\n", gs.Tenant, err)
			return 2
		}
		opened = append(opened, gs)
		pool <- gs
	}

	var mismatches atomic.Int64
	res, err := load.Run(context.Background(), load.Options{
		Workers: o.workers, Rate: o.rate, Duration: o.duration, Count: o.requests, Seed: o.seed,
	}, func(ctx context.Context, rng *rand.Rand) error {
		gs := <-pool
		defer func() { pool <- gs }()
		resp, perr := load.PostGraph(client, url, gs.NextUpdate(o.batch))
		if perr != nil {
			// The shadow already applied this batch; resync the session
			// from scratch so later checks stay meaningful.
			load.PostGraph(client, url, stream.GraphRequest{Op: stream.OpClose, Tenant: gs.Tenant})
			gs.Reset()
			load.PostGraph(client, url, gs.CreateRequest())
			return perr
		}
		if o.check {
			if cerr := gs.Check(resp); cerr != nil {
				mismatches.Add(1)
				fmt.Fprintf(os.Stderr, "tcload: %v\n", cerr)
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcload: %v\n", err)
		return 2
	}

	identical := mismatches.Load() == 0
	if o.jsonOut {
		out, _ := json.Marshal(map[string]any{
			"sent": res.Sent, "ok": res.OK, "failed": res.Failed,
			"seconds": res.Elapsed.Seconds(), "rps": res.RPS,
			"p50_us": res.Latency.Quantile(0.50), "p99_us": res.Latency.Quantile(0.99),
			"p999_us": res.Latency.Quantile(0.999), "max_us": res.Latency.Max(),
			"identical": identical, "tenants": o.tenants, "batch": o.batch,
			"gomaxprocs": runtime.GOMAXPROCS(0),
		})
		fmt.Println(string(out))
	} else {
		fmt.Printf("tcload: graph mode, %d tenants (n=%d τ=%d), batch %d, %d workers\n",
			o.tenants, o.n, o.tau, o.batch, o.workers)
		fmt.Printf("  sent %d  ok %d  failed %d  in %.2fs  =>  %.0f rps\n",
			res.Sent, res.OK, res.Failed, res.Elapsed.Seconds(), res.RPS)
		fmt.Printf("  latency µs: p50 %d  p99 %d  p999 %d  max %d\n",
			res.Latency.Quantile(0.50), res.Latency.Quantile(0.99),
			res.Latency.Quantile(0.999), res.Latency.Max())
		if o.check {
			fmt.Printf("  identical: %v\n", identical)
		}
	}
	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "tcload: %d requests failed (first: %v)\n", res.Failed, res.Err)
		return 1
	}
	if o.check && !identical {
		fmt.Fprintf(os.Stderr, "tcload: %d screened responses differ from the shadow recount\n", mismatches.Load())
		return 1
	}
	return 0
}

// runPrefix returns a random name prefix unique to one graph run.
func runPrefix() (string, error) {
	var b [6]byte
	if _, err := crand.Read(b[:]); err != nil {
		return "", fmt.Errorf("run prefix: %w", err)
	}
	return "run-" + hex.EncodeToString(b[:]), nil
}

// probeHealth is the scripts' readiness check: one short GET of
// /healthz, quiet, exit 0 iff the server answered 200. It exists so
// scripts/loadgen_smoke.sh needs no curl/wget on minimal runners — the
// tcload binary is already built there.
func probeHealth(base string) int {
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get(strings.TrimRight(base, "/") + "/healthz")
	if err != nil {
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 1
	}
	return 0
}

// smokeVerdict compares measured throughput to the committed e27
// frame-mode baseline row.
func smokeVerdict(path string, minFrac, rps float64) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcload: smoke baseline: %v\n", err)
		return 2
	}
	var file struct {
		E27 []struct {
			Mode string  `json:"mode"`
			RPS  float64 `json:"rps"`
		} `json:"e27"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		fmt.Fprintf(os.Stderr, "tcload: smoke baseline %s: %v\n", path, err)
		return 2
	}
	base := 0.0
	for _, r := range file.E27 {
		if r.Mode == "http-sharded-frame" {
			base = r.RPS
		}
	}
	if base == 0 {
		fmt.Fprintf(os.Stderr, "tcload: smoke baseline %s has no http-sharded-frame row\n", path)
		return 2
	}
	floor := base * minFrac
	fmt.Printf("tcload: smoke: %.0f rps vs baseline %.0f (floor %.0f = %.0f%%)\n",
		rps, base, floor, minFrac*100)
	// Same predicate as `tcexp compare` and tcbench -smoke: a
	// higher-is-better metric regresses when it falls under
	// baseline*(1-tol); here tol is 1 - minFrac.
	if exp.Regressed(exp.HigherIsBetter, base, rps, 1-minFrac) {
		fmt.Fprintf(os.Stderr, "tcload: smoke FAILED: rps regression below the floor\n")
		return 1
	}
	fmt.Println("tcload: smoke passed")
	return 0
}

// parseShapes parses the rank-ordered "op:n[:tau]" list. Matmul shapes
// default to the benchmarks' 2-bit signed entries so pools agree with
// the committed e25/e27 workload.
func parseShapes(spec string) ([]core.Shape, error) {
	var out []core.Shape
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("shape %q: want op:n[:tau]", part)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("shape %q: bad n", part)
		}
		sh := core.Shape{N: n, Alg: "strassen"}
		switch fields[0] {
		case "matmul":
			sh.Op, sh.EntryBits, sh.Signed = core.OpMatMul, 2, true
		case "trace":
			sh.Op = core.OpTrace
		case "count", "triangles":
			sh.Op = core.OpCount
		default:
			return nil, fmt.Errorf("shape %q: unknown op (matmul, trace, count)", part)
		}
		if len(fields) == 3 {
			if sh.Op != core.OpTrace {
				return nil, fmt.Errorf("shape %q: tau only applies to trace", part)
			}
			tau, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("shape %q: bad tau", part)
			}
			sh.Tau = tau
		}
		out = append(out, sh)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -shapes list")
	}
	return out, nil
}
