# Convenience targets. Everything is plain `go` underneath.

GO ?= go

.PHONY: all check ci fmt-check perfbench-check fuzz-smoke bench-smoke loadgen-smoke bench-compare bench-baseline vuln build test test-short vet cover race bench bench-build bench-serve bench-store experiments fuzz verify serve-test clean

all: build vet test

# The pre-merge gate: build + vet + the -short suites everywhere, the
# race detector over the concurrency-bearing packages, the evaluation
# service, and the certification suite. Uses test-short consistently so
# the gate stays minutes, not tens of minutes; `make test` runs the
# guarded long builds.
check: build vet test-short race serve-test verify

# Mirrors .github/workflows/ci.yml job for job, so a green local `make
# ci` predicts a green CI run (module download aside).
ci: fmt-check check perfbench-check fuzz-smoke bench-smoke loadgen-smoke bench-compare vuln

# The CI formatting gate: gofmt must have nothing to say.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# The benchmark harness is its own module (repro/perfbench), so the
# root `go build ./...` and `go vet ./...` never compile it: vet and
# test it from inside, so an API change in the root module cannot
# break the benchmark unseen.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The CI fuzz gate: a brief seed-corpus + 30s mutation pass over the
# surfaces that parse adversarial bytes — the batched evaluator, the
# TCS2 store decoder, and the TCG1 graph-frame codec (the full `make
# fuzz` rotates every target). CI runs this target rather than its own
# step list, so adding a decoder here arms it everywhere at once.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzEvalBatch -fuzztime 30s ./internal/circuit/
	$(GO) test -run '^$$' -fuzz FuzzTCS2 -fuzztime 30s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzGraphFrame -fuzztime 30s ./internal/stream/

# The CI parallel-build regression gate: the sharded builder at N=8 must
# stay within 20% of sequential wall clock (min over repeats); exits
# nonzero otherwise. Skips itself when GOMAXPROCS < 2 — single-core
# machines cannot measure parallel speedup.
bench-smoke:
	$(GO) run ./cmd/tcbench -smoke

# The CI experiment-grid regression gate: run the smoke grid (every
# measured experiment e23-e27 at N=8, each sample a fresh subprocess)
# and diff it against the committed baseline under bench/baselines/.
# The tolerance is deliberately generous — the baseline was measured on
# a 1-core container and hosted runners differ on every absolute
# number — so only a large directional regression trips it; `tcexp
# compare` prints the machine-mismatch warning when that applies.
bench-compare:
	$(GO) run ./cmd/tcexp run -grid exp/smoke.json -out results
	$(GO) run ./cmd/tcexp compare -tol 0.6 bench/baselines/smoke results/latest

# Re-measure the committed smoke baseline in place (run on the
# reference box, inspect the diff, commit).
bench-baseline:
	$(GO) run ./cmd/tcexp run -grid exp/smoke.json -out results
	rm -rf bench/baselines/smoke
	mkdir -p bench/baselines
	cp -rL results/latest bench/baselines/smoke

# The CI serving regression gate: start tcserve, drive it with tcload's
# -smoke burst (closed loop, binary frame protocol, responses verified
# against direct evaluation), and fail if throughput drops below half
# the committed BENCH_serve.json e27 baseline. Skips itself when
# GOMAXPROCS < 2 — the sharded-dispatch number needs real parallelism.
loadgen-smoke:
	scripts/loadgen_smoke.sh

# The coalescing evaluation service and the streaming session layer on
# top of it are dispatcher-goroutine heavy, so their suites always run
# under the race detector.
serve-test:
	$(GO) test -race ./internal/serve ./internal/stream

# Certification: the theorem-bound/differential/metamorphic suite, vet,
# and the race detector over the packages the verifier drives.
verify:
	$(GO) test ./internal/verify -run Certify
	$(GO) vet ./...
	$(GO) test -race -short ./internal/circuit ./internal/core
	$(GO) run ./cmd/tcverify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Skips the multi-million-gate guarded tests (N=32/64 trace builds).
test-short:
	$(GO) test -short ./...

cover:
	$(GO) test -short -cover ./...

# Race-detect the packages that run goroutines (EvalParallel, the
# batch evaluator's worker pool, and the batched core wrappers).
race:
	$(GO) test -race -short ./internal/circuit/... ./internal/core/...

bench:
	$(GO) test -bench=. -benchmem .

# Construction-pipeline benchmarks: sequential vs fork/adopt sharded
# builds (Go benchmarks with allocation stats), then the E24 scaling
# table, which writes BENCH_build.json. Add the N=32 rows (build, eval,
# certify — minutes of wall clock) with:
#   go run ./cmd/tcbench -n32 e24
bench-build:
	$(GO) test -run '^$$' -bench 'BuildParallel' -benchmem .
	$(GO) run ./cmd/tcbench e24

# Serving benchmarks, both sections of BENCH_serve.json: E25 closed-loop
# coalescing vs one-request-per-Eval, then E27 sharded dispatch with
# latency quantiles (closed-loop JSON + frame, open-loop Zipf/Poisson).
bench-serve:
	$(GO) run ./cmd/tcbench e25 e27

# E26 store benchmark: cold parallel build vs content-addressed
# cache-load for N=8/16 Strassen matmul; writes BENCH_store.json.
bench-store:
	$(GO) run ./cmd/tcbench e26

# Regenerate every experiment table (E1-E23; see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/tcbench

# Brief fuzzing pass over the robustness-critical surfaces.
fuzz:
	$(GO) test -fuzz=FuzzRead -fuzztime=30s ./internal/circuit/
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=30s ./internal/circuit/
	$(GO) test -fuzz=FuzzEvalBatch -fuzztime=30s ./internal/circuit/
	$(GO) test -fuzz=FuzzSumBits -fuzztime=30s ./internal/arith/
	$(GO) test -fuzz=FuzzEncodeSigned -fuzztime=30s ./internal/arith/
	$(GO) test -fuzz=FuzzTCS2 -fuzztime=30s ./internal/store/
	$(GO) test -fuzz=FuzzGraphFrame -fuzztime=30s ./internal/stream/

# The CI known-vulnerability gate: govulncheck's call-graph analysis
# over every package. Needs network access to fetch the tool and the
# vulnerability database, so it is CI-first; offline boxes can skip it
# (the rest of `make ci` is self-contained).
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

clean:
	$(GO) clean ./...
