// Command tcserve runs the request-coalescing evaluation service over
// HTTP — JSON endpoints plus the binary /v1/eval frame protocol, with
// each circuit's dispatch sharded across -shards per-core dispatchers
// (see internal/serve and DESIGN.md "Sharded dispatch and the load
// harness").
//
//	tcserve -addr :8714 -max-batch 64 -linger 200us -cache-dir /var/cache/tc
//
// Endpoints:
//
//	POST /v1/matmul    POST /v1/trace    POST /v1/triangles
//	POST /v1/eval      (binary TCF1 frames, application/x-tcframe)
//	POST /v1/graph     (binary TCG1 frames: per-tenant streaming edge
//	                    updates + triangle screening, internal/stream)
//	GET  /v1/stats     GET  /healthz
//	GET  /debug/vars   GET  /debug/pprof/...
//
// The default -addr honors TCSERVE_PORT (":$TCSERVE_PORT"), the same
// variable tcload and the smoke scripts read.
//
// The process shuts down gracefully on SIGINT/SIGTERM: the listener
// stops accepting, in-flight HTTP requests finish, and every cached
// circuit's dispatcher drains its queued batches before exit.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/stream"
)

// defaultAddr derives the default listen address from TCSERVE_PORT so
// the server, tcload and the smoke scripts agree on one variable.
func defaultAddr() string {
	if port := os.Getenv("TCSERVE_PORT"); port != "" {
		return ":" + port
	}
	return ":8714"
}

func main() {
	var (
		addr        = flag.String("addr", defaultAddr(), "listen address (default honors TCSERVE_PORT)")
		maxCircuits = flag.Int("max-circuits", 8, "LRU cache size (built circuits)")
		maxBatch    = flag.Int("max-batch", 64, "max samples coalesced per evaluation")
		linger      = flag.Duration("linger", 200*time.Microsecond, "batching linger after the first request (0 = none)")
		queueDepth  = flag.Int("queue-depth", 256, "per-circuit pending-request bound across stripes (full queues answer 429)")
		shards      = flag.Int("shards", 0, "dispatcher goroutines per circuit (0 = GOMAXPROCS); striped queues + work stealing")
		buildW      = flag.Int("build-workers", -1, "circuit construction workers (-1 = GOMAXPROCS)")
		evalW       = flag.Int("eval-workers", 1, "batch evaluator workers per circuit")
		reqTimeout  = flag.Duration("request-timeout", 30*time.Second, "per-request deadline")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound")
		cacheDir    = flag.String("cache-dir", "", "content-addressed circuit store; LRU misses warm-start from disk (empty = build-only)")
		maxSessions = flag.Int("stream-max-sessions", 1024, "graph-session LRU bound (oldest sessions retire)")
		maxStreamN  = flag.Int("stream-max-n", 64, "largest per-tenant graph accepted on /v1/graph")
	)
	flag.Parse()

	cfg := serve.Config{
		MaxCircuits:    *maxCircuits,
		MaxBatch:       *maxBatch,
		Linger:         *linger,
		QueueDepth:     *queueDepth,
		Shards:         *shards,
		BuildWorkers:   *buildW,
		EvalWorkers:    *evalW,
		RequestTimeout: *reqTimeout,
	}
	if *linger == 0 {
		cfg.Linger = -1 // Config treats 0 as "default"; negative disables
	}
	if *cacheDir != "" {
		cache, err := store.Open(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcserve: open cache: %v\n", err)
			os.Exit(1)
		}
		// Mapped artifacts are the server's working set; the cache stays
		// open for the life of the process, so no Close here.
		cfg.Cache = cache
		log.Printf("tcserve: circuit store at %s", cache.Dir())
	}
	s := serve.New(cfg)
	m := stream.NewManager(stream.Config{
		Server:         s,
		MaxSessions:    *maxSessions,
		MaxN:           *maxStreamN,
		RequestTimeout: *reqTimeout,
	})

	mux := http.NewServeMux()
	mux.Handle("/", stream.Mux(s, m))
	// Diagnostics live beside the API on the same listener. The expvar
	// and pprof packages register on http.DefaultServeMux as an import
	// side effect; mounting them explicitly keeps this mux the only one
	// that serves.
	expvar.Publish("tcserve", expvar.Func(func() any { return s.Snapshot() }))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("tcserve listening on %s (max-batch=%d linger=%v queue-depth=%d shards=%d)",
		*addr, *maxBatch, *linger, *queueDepth, *shards)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("tcserve: %v, draining", sig)
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "tcserve: %v\n", err)
		s.Close()
		os.Exit(1)
	}

	// Two-stage drain: stop the HTTP edge first (in-flight handlers keep
	// their dispatcher replies), then retire the dispatchers.
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("tcserve: shutdown: %v", err)
	}
	m.Close()
	s.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("tcserve: serve: %v", err)
	}
	log.Printf("tcserve: drained, bye")
}
