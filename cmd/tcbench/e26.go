package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/store"
	"repro/internal/verify"
)

// storeBenchRow is one BENCH_store.json entry — the build-once/
// serve-many economics of the circuit store, one row per shape.
// Timing follows BENCH_build.json conventions: mean/min over Repeats
// back-to-back runs, with GoMaxProcs/NumCPU recording the parallelism
// the build phase actually had. LoadColdSec is the first load a freshly
// opened cache performs (the mmap path: map, checksum, decode); the
// warm figures are steady-state reloads. Speedup divides the
// contention-free build by the best warm load — the restart-vs-rebuild
// ratio a warm server sees. BytesVsFlat is the artifact's size relative
// to the flat encoding of the same circuit (circuit.WriteTo's bytes).
type storeBenchRow struct {
	Circuit         string  `json:"circuit"`
	N               int     `json:"n"`
	Format          string  `json:"format"`
	Gates           int     `json:"gates"`
	Bytes           int64   `json:"bytes"`
	Repeats         int     `json:"repeats"`
	GoMaxProcs      int     `json:"gomaxprocs"`
	NumCPU          int     `json:"num_cpu"`
	GitSHA          string  `json:"git_sha"`
	BuildSecMean    float64 `json:"build_sec_mean"`
	BuildSecStd     float64 `json:"build_sec_std"`
	BuildSecMin     float64 `json:"build_sec_min"`
	SaveSecMean     float64 `json:"save_sec_mean"`
	SaveSecStd      float64 `json:"save_sec_std"`
	SaveSecMin      float64 `json:"save_sec_min"`
	LoadColdSec     float64 `json:"load_cold_sec"`
	LoadWarmSecMean float64 `json:"load_warm_sec_mean"`
	LoadWarmSecStd  float64 `json:"load_warm_sec_std"`
	LoadWarmSecMin  float64 `json:"load_warm_sec_min"`
	Speedup         float64 `json:"speedup_load_vs_build"`
	BytesVsFlat     float64 `json:"bytes_vs_flat"`
	Identical       bool    `json:"identical"`
	Certified       bool    `json:"certified"`
}

// e26: store round-trip economics. For N=8 and N=16 Strassen matmul
// the cold parallel build is timed against saving into and reloading
// from the disk cache. The reloaded circuit must be bit-identical
// (re-encoded TCS2 envelope equal byte for byte, random batches
// evaluating to the same output bits) and must re-certify against the
// paper's bounds — that certification runs on the mmap-backed circuit,
// whose arenas alias the file pages. The schema test pins the
// acceptance bars on the N=16 row: bytes <= flat/4, save <= build,
// warm mapped load >= 15x faster than the build.
func e26() {
	dir, err := os.MkdirTemp("", "tcbench-e26-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	maxProcs := runtime.GOMAXPROCS(0)
	fmt.Printf("GOMAXPROCS=%d NumCPU=%d\n", maxProcs, runtime.NumCPU())

	var rows []storeBenchRow
	for _, n := range []int{8, 16} {
		shape := core.Shape{Op: core.OpMatMul, N: n, Alg: "strassen", EntryBits: 2, Signed: true}
		repeats := 3
		if n >= 16 {
			repeats = 2 // the N=16 build is multi-second; two runs bound the wall clock
		}

		fmt.Printf("cold build %s x%d ...\n", shape.Key(), repeats)
		var built *core.Built
		buildSecs := make([]float64, 0, repeats)
		for i := 0; i < repeats; i++ {
			start := time.Now()
			built, err = core.BuildShape(shape, -1)
			if err != nil {
				panic(err)
			}
			buildSecs = append(buildSecs, time.Since(start).Seconds())
		}
		buildMean, buildStd, buildMin := exp.Stats(buildSecs)

		flatBytes, err := built.Circuit().WriteTo(io.Discard)
		if err != nil {
			panic(err)
		}
		cdir := fmt.Sprintf("%s/n%d", dir, n)
		writer, err := store.Open(cdir)
		if err != nil {
			panic(err)
		}

		var path string
		saveSecs := make([]float64, 0, repeats)
		for i := 0; i < repeats; i++ {
			start := time.Now()
			path, err = writer.Save(built)
			if err != nil {
				panic(err)
			}
			saveSecs = append(saveSecs, time.Since(start).Seconds())
		}
		saveMean, saveStd, saveMin := exp.Stats(saveSecs)
		fi, err := os.Stat(path)
		if err != nil {
			panic(err)
		}

		// A fresh cache over the same directory is the restart path: its
		// first load is the cold figure (map the file, verify every
		// segment, decode the group streams), repeated loads after it are
		// the steady state.
		reader, err := store.Open(cdir)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		loaded, err := reader.Load(shape)
		if err != nil {
			panic(err)
		}
		loadCold := time.Since(start).Seconds()
		warmSecs := make([]float64, 0, repeats)
		for i := 0; i < repeats; i++ {
			start = time.Now()
			loaded, err = reader.Load(shape)
			if err != nil {
				panic(err)
			}
			warmSecs = append(warmSecs, time.Since(start).Seconds())
		}
		warmMean, warmStd, warmMin := exp.Stats(warmSecs)

		// Identity and certification run against the last warm load — a
		// circuit whose arenas alias the mapped file.
		identical := identicalBuilt(built, loaded)
		certified := false
		if _, err := verify.CertifyBuilt(loaded); err == nil {
			certified = true
		}
		reader.Close()
		writer.Close()

		rows = append(rows, storeBenchRow{
			Circuit: "matmul/strassen", N: n, Format: "tcs2",
			Gates: built.Circuit().Size(), Bytes: fi.Size(),
			Repeats: repeats, GoMaxProcs: maxProcs, NumCPU: runtime.NumCPU(),
			GitSHA:       exp.GitSHA(),
			BuildSecMean: buildMean, BuildSecStd: buildStd, BuildSecMin: buildMin,
			SaveSecMean: saveMean, SaveSecStd: saveStd, SaveSecMin: saveMin,
			LoadColdSec:     loadCold,
			LoadWarmSecMean: warmMean, LoadWarmSecStd: warmStd, LoadWarmSecMin: warmMin,
			Speedup:     buildMin / warmMin,
			BytesVsFlat: float64(fi.Size()) / float64(flatBytes),
			Identical:   identical, Certified: certified,
		})
	}

	fmt.Printf("%-16s %4s %5s %9s %11s %9s %9s %9s %9s %9s %8s %6s %5s\n",
		"circuit", "n", "fmt", "gates", "bytes", "build-s", "save-s", "cold-s", "warm-s", "speedup", "vs-flat", "ident", "cert")
	for _, r := range rows {
		fmt.Printf("%-16s %4d %5s %9d %11d %9.3f %9.3f %9.3f %9.3f %8.1fx %7.1f%% %6v %5v\n",
			r.Circuit, r.N, r.Format, r.Gates, r.Bytes, r.BuildSecMean, r.SaveSecMean,
			r.LoadColdSec, r.LoadWarmSecMin, r.Speedup, r.BytesVsFlat*100, r.Identical, r.Certified)
	}

	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile("BENCH_store.json", append(out, '\n'), 0o644); err != nil {
		panic(err)
	}
	fmt.Println("rows written to BENCH_store.json")
}

// identicalBuilt checks the two bit-identity properties the store
// guarantees: re-encoding the reloaded Built reproduces the original's
// TCS2 envelope byte for byte (the encoder is deterministic, so this
// holds however the reload came about), and a batch of random samples
// evaluates to the same output bits on both.
func identicalBuilt(a, b *core.Built) bool {
	ea, err := store.EncodeTCS2(a)
	if err != nil {
		return false
	}
	eb, err := store.EncodeTCS2(b)
	if err != nil {
		return false
	}
	if !bytes.Equal(ea, eb) {
		return false
	}

	ca, cb := a.Circuit(), b.Circuit()
	rng := rand.New(rand.NewSource(26))
	ins := make([][]bool, 64)
	for i := range ins {
		in := make([]bool, ca.NumInputs())
		for j := range in {
			in[j] = rng.Intn(2) == 1
		}
		ins[i] = in
	}
	eva := circuit.NewEvaluator(ca, 0)
	defer eva.Close()
	evb := circuit.NewEvaluator(cb, 0)
	defer evb.Close()
	va, vb := eva.EvalBatch(ins), evb.EvalBatch(ins)
	for i := range va {
		for _, o := range ca.Outputs() {
			if va[i][o] != vb[i][o] {
				return false
			}
		}
	}
	return true
}
