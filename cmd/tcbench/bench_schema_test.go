package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/exp"
)

// The BENCH_*.json artifacts written by e24/e25 are machine-read (CI
// trend tracking); these tests pin their schemas and the e25 acceptance
// bar. Each skips when its artifact is absent so plain `go test ./...`
// does not require a prior bench run.

func loadRows(t *testing.T, path string, dst any) {
	t.Helper()
	// tcbench writes relative to the repo root; the test runs in the
	// package directory, so check both.
	data, err := os.ReadFile("../../" + path)
	if os.IsNotExist(err) {
		data, err = os.ReadFile(path)
	}
	if os.IsNotExist(err) {
		t.Skipf("%s not present; run `go run ./cmd/tcbench %s` first", path, map[string]string{
			"BENCH_build.json": "e24", "BENCH_serve.json": "e25 e27 e28", "BENCH_store.json": "e26",
		}[path])
	}
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		t.Fatalf("%s: schema drift: %v", path, err)
	}
}

func TestBenchBuildSchema(t *testing.T) {
	var rows []buildBenchRow
	loadRows(t, "BENCH_build.json", &rows)
	if len(rows) == 0 {
		t.Fatal("BENCH_build.json has no rows")
	}
	n32 := map[string]bool{}
	for i, r := range rows {
		if r.Circuit == "" || r.N <= 0 || r.Workers == 0 || r.Gates <= 0 ||
			r.Repeats <= 0 || r.BuildSecMean <= 0 || r.BuildSecMin <= 0 ||
			r.GoMaxProcs <= 0 || r.NumCPU <= 0 {
			t.Errorf("row %d malformed: %+v", i, r)
		}
		if r.BuildSecMin > r.BuildSecMean*(1+1e-9) {
			t.Errorf("row %d: min %.4f exceeds mean %.4f", i, r.BuildSecMin, r.BuildSecMean)
		}
		// Std is 0 for single-repeat rows (the N=32 entries) and must
		// never be negative; provenance must name a commit or "unknown".
		if r.BuildSecStd < 0 || (r.Repeats < 2 && r.BuildSecStd != 0) {
			t.Errorf("row %d: build_sec_std %g inconsistent with repeats %d", i, r.BuildSecStd, r.Repeats)
		}
		if !exp.WellFormedSHA(r.GitSHA) {
			t.Errorf("row %d: git_sha %q not well-formed", i, r.GitSHA)
		}
		if !r.Identical {
			t.Errorf("row %d: parallel build not identical to sequential: %+v", i, r)
		}
		if r.N == 32 {
			n32[r.Circuit] = true
			if r.Workers == 1 && !r.Checked {
				t.Errorf("row %d: sequential N=32 %s row not evaluated+certified", i, r.Circuit)
			}
		}
	}
	for _, circ := range []string{"trace", "matmul"} {
		if !n32[circ] {
			t.Errorf("BENCH_build.json missing the N=32 %s row", circ)
		}
	}
}

func TestBenchServeSchema(t *testing.T) {
	var file serveBenchFile
	loadRows(t, "BENCH_serve.json", &file)
	// Serve rows are single runs, so provenance lives at file level.
	if !exp.WellFormedSHA(file.GitSHA) {
		t.Errorf("file git_sha %q not well-formed", file.GitSHA)
	}

	modes := make(map[string]bool)
	for i, r := range file.E25 {
		modes[r.Mode] = true
		if r.Clients <= 0 || r.Requests <= 0 || r.Seconds <= 0 || r.RPS <= 0 {
			t.Errorf("e25 row %d malformed: %+v", i, r)
		}
		if !r.Identical {
			t.Errorf("e25 row %d (%s): responses not bit-identical to direct Eval", i, r.Mode)
		}
		if r.Mode == "coalesced" && r.Speedup < 3 {
			t.Errorf("coalesced speedup %.2fx below the 3x acceptance bar", r.Speedup)
		}
	}
	for _, mode := range []string{"per-request-eval", "coalesced", "http-coalesced"} {
		if !modes[mode] {
			t.Errorf("BENCH_serve.json missing e25 mode %q", mode)
		}
	}

	// E27: sharded-dispatch rows carry latency quantiles and record the
	// parallelism they were measured under. The ≥3x bar against e25's
	// http-coalesced row is armed only for multi-core measurements —
	// sharding cannot beat coalescing-on-one-core on a one-core host,
	// and the honest number is published either way (the multi-core gate
	// lives in CI's loadgen-smoke job).
	e27Modes := make(map[string]bool)
	for i, r := range file.E27 {
		e27Modes[r.Mode] = true
		if r.Shards <= 0 || r.Clients <= 0 || r.Requests <= 0 || r.Seconds <= 0 ||
			r.RPS <= 0 || r.GoMaxProcs <= 0 {
			t.Errorf("e27 row %d malformed: %+v", i, r)
		}
		if !(0 < r.P50us && r.P50us <= r.P99us && r.P99us <= r.P999us) {
			t.Errorf("e27 row %d (%s): quantiles not ordered: p50=%d p99=%d p999=%d",
				i, r.Mode, r.P50us, r.P99us, r.P999us)
		}
		if !r.Identical {
			t.Errorf("e27 row %d (%s): responses not bit-identical to direct Eval", i, r.Mode)
		}
		if r.Mode == "http-zipf-open" && (r.RateRPS <= 0 || r.ZipfS <= 1) {
			t.Errorf("e27 open-loop row missing rate/zipf parameters: %+v", r)
		}
		if r.GoMaxProcs >= 4 && r.Mode == "http-sharded" && r.SpeedupVsE25HTTP < 3 {
			t.Errorf("http-sharded speedup %.2fx below the 3x multi-core acceptance bar",
				r.SpeedupVsE25HTTP)
		}
	}
	for _, mode := range []string{"http-sharded", "http-sharded-frame", "http-zipf-open"} {
		if !e27Modes[mode] {
			t.Errorf("BENCH_serve.json missing e27 mode %q", mode)
		}
	}

	// E28: the streaming service. The ≥4x batched-re-screen bar is a
	// bit-slicing win (64 graphs per machine word), not a parallelism
	// win, so it is armed regardless of GoMaxProcs; the sequential and
	// batched energy totals must agree exactly — popcount accounting
	// over bit planes ≡ per-sample firing counts. An absent e28 section
	// only means the row hasn't been generated yet (omitempty), but a
	// present one must be complete.
	if len(file.E28) > 0 {
		e28Rows := make(map[string]e28Row)
		for i, r := range file.E28 {
			e28Rows[r.Mode] = r
			if r.Tenants <= 0 || r.N <= 0 || r.Requests <= 0 || r.Seconds <= 0 ||
				r.RPS <= 0 || r.EnergyGates <= 0 || r.GoMaxProcs <= 0 {
				t.Errorf("e28 row %d malformed: %+v", i, r)
			}
			if !r.Identical {
				t.Errorf("e28 row %d (%s): screened counts not bit-identical to the scalar recount oracle", i, r.Mode)
			}
		}
		for _, mode := range []string{"update-screen-http", "screen-sequential", "screen-batch64"} {
			if _, ok := e28Rows[mode]; !ok {
				t.Errorf("BENCH_serve.json missing e28 mode %q", mode)
			}
		}
		httpRow, seq, batch := e28Rows["update-screen-http"], e28Rows["screen-sequential"], e28Rows["screen-batch64"]
		if !(0 < httpRow.P50us && httpRow.P50us <= httpRow.P99us) {
			t.Errorf("e28 http row: quantiles not ordered: p50=%d p99=%d", httpRow.P50us, httpRow.P99us)
		}
		if httpRow.UpdateBatch <= 0 {
			t.Errorf("e28 http row missing update_batch: %+v", httpRow)
		}
		if batch.SpeedupVsSequential < 4 {
			t.Errorf("e28 batched re-screen speedup %.2fx below the 4x acceptance bar",
				batch.SpeedupVsSequential)
		}
		if seq.Requests != batch.Requests {
			t.Errorf("e28 re-screen modes screened different request counts: %d vs %d",
				seq.Requests, batch.Requests)
		}
		if seq.EnergyGates != batch.EnergyGates {
			t.Errorf("e28 energy totals diverge: sequential %d vs batched %d",
				seq.EnergyGates, batch.EnergyGates)
		}
	}
}

func TestBenchStoreSchema(t *testing.T) {
	var rows []storeBenchRow
	loadRows(t, "BENCH_store.json", &rows)
	have := make(map[int]bool)
	for i, r := range rows {
		have[r.N] = true
		if r.Circuit == "" || r.N <= 0 || r.Gates <= 0 || r.Bytes <= 0 ||
			r.Repeats <= 0 || r.GoMaxProcs <= 0 || r.NumCPU <= 0 ||
			r.BuildSecMean <= 0 || r.BuildSecMin <= 0 ||
			r.SaveSecMean <= 0 || r.SaveSecMin <= 0 ||
			r.LoadColdSec <= 0 || r.LoadWarmSecMean <= 0 || r.LoadWarmSecMin <= 0 ||
			r.BytesVsFlat <= 0 {
			t.Errorf("row %d malformed: %+v", i, r)
		}
		if r.Format != "tcs2" {
			t.Errorf("row %d: unknown format %q", i, r.Format)
		}
		if r.BuildSecMin > r.BuildSecMean*(1+1e-9) ||
			r.SaveSecMin > r.SaveSecMean*(1+1e-9) ||
			r.LoadWarmSecMin > r.LoadWarmSecMean*(1+1e-9) {
			t.Errorf("row %d: a min exceeds its mean: %+v", i, r)
		}
		if r.BuildSecStd < 0 || r.SaveSecStd < 0 || r.LoadWarmSecStd < 0 {
			t.Errorf("row %d: negative std: %+v", i, r)
		}
		if !exp.WellFormedSHA(r.GitSHA) {
			t.Errorf("row %d: git_sha %q not well-formed", i, r.GitSHA)
		}
		if !r.Identical {
			t.Errorf("row %d (n=%d %s): reloaded circuit not bit-identical to the build", i, r.N, r.Format)
		}
		if !r.Certified {
			t.Errorf("row %d (n=%d %s): reloaded circuit failed re-certification", i, r.N, r.Format)
		}
		// The store's acceptance bars, armed on the N=16 row: a quarter
		// of the flat encoding's footprint, saving no slower than
		// building, and a warm mapped reload at least 15x faster than the
		// cold parallel build.
		// The speedup bar divides two measured wall-clock figures, so it
		// moves when either side does: on the 1-core reference box the
		// ratio ranges 17–21x (warm load steady at ~0.09s, build 1.8–2.0s
		// run to run). 15x keeps it a load-path-regression tripwire, not
		// a build-speed jitter detector.
		if r.N == 16 {
			if r.BytesVsFlat > 0.25 {
				t.Errorf("n=16 tcs2 artifact is %.1f%% of the flat encoding, above the 25%% bar", r.BytesVsFlat*100)
			}
			if r.SaveSecMean > r.BuildSecMean {
				t.Errorf("n=16 tcs2 save %.3fs slower than build %.3fs", r.SaveSecMean, r.BuildSecMean)
			}
			if r.Speedup < 15 {
				t.Errorf("n=16 tcs2 mapped-load speedup %.2fx below the 15x acceptance bar", r.Speedup)
			}
		}
	}
	for _, n := range []int{8, 16} {
		if !have[n] {
			t.Errorf("BENCH_store.json missing the n=%d row", n)
		}
	}
}
