package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/matrix"
)

// testShapes covers every op at sizes small enough for -short CI runs.
func testShapes() []core.Shape {
	return []core.Shape{
		{Op: core.OpMatMul, N: 4, Alg: "strassen"},
		{Op: core.OpMatMul, N: 8, Alg: "strassen", EntryBits: 2, Signed: true},
		{Op: core.OpTrace, N: 4, Tau: 6, Alg: "strassen"},
		{Op: core.OpTrace, N: 8, Tau: 12, Alg: "strassen"},
		{Op: core.OpCount, N: 4, Alg: "strassen"},
	}
}

// evalBatch runs a random batch through the circuit's bit-sliced
// evaluator and returns the gathered marked-output planes as flat
// bools, sample-major.
func evalBatch(t *testing.T, c *circuit.Circuit, rng *rand.Rand, batch int) [][]bool {
	t.Helper()
	ev := circuit.NewEvaluator(c, 0)
	defer ev.Close()
	ins := make([][]bool, batch)
	sampleRng := rand.New(rand.NewSource(rng.Int63()))
	for i := range ins {
		in := make([]bool, c.NumInputs())
		for j := range in {
			in[j] = sampleRng.Intn(2) == 1
		}
		ins[i] = in
	}
	outs := ev.EvalBatch(ins)
	gathered := make([][]bool, batch)
	for i, vals := range outs {
		row := make([]bool, len(c.Outputs()))
		for j, o := range c.Outputs() {
			row[j] = vals[o]
		}
		gathered[i] = row
	}
	return gathered
}

// The round-trip property the cache guarantees on its load path (mapped
// where the platform supports it): a saved artifact reloads into a
// circuit that re-encodes to the exact bytes on disk, expands to the
// same flat circuit, and is bit-identical under batched evaluation.
func TestRoundTripByteIdentical(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	for _, shape := range testShapes() {
		t.Run(shape.Key(), func(t *testing.T) {
			bt, err := core.BuildShape(shape, 0)
			if err != nil {
				t.Fatal(err)
			}
			path, err := cache.Save(bt)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := cache.Load(shape)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data2, err := EncodeTCS2(rt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, data2) {
				t.Fatal("re-serialization of the loaded circuit is not byte-identical")
			}
			if !bytes.Equal(flatBytes(t, bt), flatBytes(t, rt)) {
				t.Fatal("loaded circuit expands differently from the original")
			}

			rng := rand.New(rand.NewSource(7))
			// Same seed → same inputs for both circuits.
			seed := rng.Int63()
			a := evalBatch(t, bt.Circuit(), rand.New(rand.NewSource(seed)), 65)
			b := evalBatch(t, rt.Circuit(), rand.New(rand.NewSource(seed)), 65)
			for i := range a {
				for j := range a[i] {
					if a[i][j] != b[i][j] {
						t.Fatalf("sample %d output %d differs after reload", i, j)
					}
				}
			}
		})
	}
	if st := cache.Stats(); MapSupported() && st.Mapped != int64(len(testShapes())) {
		t.Errorf("stats %+v, want every load mapped", st)
	}
}

// End-to-end through the cache: save, load, and answer real queries
// identically.
func TestCacheSaveLoad(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shape := core.Shape{Op: core.OpMatMul, N: 4, Alg: "strassen", EntryBits: 2, Signed: true}

	if _, err := cache.Load(shape); !errors.Is(err, ErrMiss) {
		t.Fatalf("empty cache returned %v, want ErrMiss", err)
	}
	bt, err := core.BuildShape(shape, 0)
	if err != nil {
		t.Fatal(err)
	}
	path, err := cache.Save(bt)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != cache.Dir() {
		t.Errorf("artifact %s outside cache dir %s", path, cache.Dir())
	}
	rt, err := cache.Load(shape)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 4; trial++ {
		a := matrix.Random(rng, 4, 4, -2, 2)
		b := matrix.Random(rng, 4, 4, -2, 2)
		want, err := bt.MatMul.Multiply(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rt.MatMul.Multiply(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got) {
			t.Fatal("reloaded circuit multiplies differently")
		}
	}

	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Saves != 1 || st.Corrupt != 0 {
		t.Errorf("stats %+v, want 1 hit / 1 miss / 1 save", st)
	}

	// A different shape misses even with the first artifact present.
	other := shape
	other.N = 8
	if _, err := cache.Load(other); !errors.Is(err, ErrMiss) {
		t.Errorf("cross-shape load returned %v, want ErrMiss", err)
	}
}

// writeArtifact puts data at the cache's address for shape, as a
// damaged or foreign file would sit there.
func writeArtifact(t *testing.T, cache *Cache, shape core.Shape, data []byte) {
	t.Helper()
	if err := os.WriteFile(cache.Path(shape), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// Fault injection through the cache's load path (the mapped decode on
// mmap-capable platforms): flipping any byte of the artifact on disk
// must yield a rejection (ErrCorrupt), never a mis-loaded circuit or a
// panic. The heap decoder's twin is TestTCS2FaultInjectionFlippedBytes.
func TestFaultInjectionFlippedBytes(t *testing.T) {
	shape := core.Shape{Op: core.OpTrace, N: 4, Tau: 6, Alg: "strassen"}
	bt, err := core.BuildShape(shape, 0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := EncodeTCS2(bt)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	// Every byte of the header, then a stride through the payload, then
	// every byte of the leaf table's end and the footer.
	offsets := map[int]bool{}
	for i := 0; i < len(good) && i < 256; i++ {
		offsets[i] = true
	}
	for i := 256; i < len(good); i += 97 {
		offsets[i] = true
	}
	for i := len(good) - tcs2TailLen - 8; i < len(good); i++ {
		if i >= 0 {
			offsets[i] = true
		}
	}
	for off := range offsets {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x41
		writeArtifact(t, cache, shape, bad)
		if _, err := cache.Load(shape); err == nil {
			t.Fatalf("flipped byte at %d accepted", off)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flipped byte at %d: error %v does not wrap ErrCorrupt", off, err)
		}
	}
	if st := cache.Stats(); st.Hits != 0 || st.Corrupt != int64(len(offsets)) {
		t.Errorf("stats %+v, want 0 hits / %d corrupt", st, len(offsets))
	}
}

// Truncations at every length, and trailing garbage, are rejected by
// the cache's load path.
func TestFaultInjectionTruncation(t *testing.T) {
	shape := core.Shape{Op: core.OpCount, N: 4, Alg: "strassen"}
	bt, err := core.BuildShape(shape, 0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := EncodeTCS2(bt)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	step := 1
	if len(good) > 4096 {
		step = 31
	}
	for cut := 0; cut < len(good); cut += step {
		writeArtifact(t, cache, shape, good[:cut])
		if _, err := cache.Load(shape); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: %v", cut, err)
		}
	}
	writeArtifact(t, cache, shape, append(append([]byte(nil), good...), 0xCC))
	if _, err := cache.Load(shape); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing garbage: %v", err)
	}
}

// A wrong-version artifact (resealed, so only the version differs from
// a valid file) sitting at the cache address is rejected with
// ErrVersion, distinguishable from damage but still rebuild-triggering.
func TestWrongVersionRejected(t *testing.T) {
	shape := core.Shape{Op: core.OpMatMul, N: 4, Alg: "strassen"}
	bt, err := core.BuildShape(shape, 0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := EncodeTCS2(bt)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[4] = FormatVersionTCS2 + 1
	resealed, ok := resealTCS2(bad)
	if !ok {
		t.Fatal("reseal failed on a well-formed envelope")
	}
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	writeArtifact(t, cache, shape, resealed)
	_, err = cache.Load(shape)
	if !errors.Is(err, ErrVersion) {
		t.Errorf("version mismatch: %v, want ErrVersion", err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("ErrVersion must wrap ErrCorrupt, got %v", err)
	}
	// LoadOrBuild treats the stale file as a rebuild and replaces it.
	if _, fromDisk, err := cache.LoadOrBuild(shape, 0); err != nil || fromDisk {
		t.Fatalf("LoadOrBuild over a wrong-version file: hit=%v err=%v", fromDisk, err)
	}
	if _, err := cache.Load(shape); err != nil {
		t.Fatalf("rebuilt artifact does not load: %v", err)
	}
}

// On-disk corruption heals through LoadOrBuild: reject, delete,
// rebuild, re-save.
func TestLoadOrBuildHealsCorruption(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shape := core.Shape{Op: core.OpTrace, N: 4, Tau: 2, Alg: "strassen"}

	// Cold: builds and saves.
	bt, fromDisk, err := cache.LoadOrBuild(shape, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fromDisk {
		t.Fatal("cold LoadOrBuild claims a disk hit")
	}
	// Warm: loads.
	if _, fromDisk, err = cache.LoadOrBuild(shape, 0); err != nil || !fromDisk {
		t.Fatalf("warm LoadOrBuild: hit=%v err=%v", fromDisk, err)
	}

	// Corrupt the artifact in place.
	path := cache.Path(shape)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rt, fromDisk, err := cache.LoadOrBuild(shape, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fromDisk {
		t.Fatal("corrupt artifact served as a hit")
	}
	rng := rand.New(rand.NewSource(11))
	adj := matrix.New(4, 4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if rng.Intn(2) == 1 {
				adj.Set(i, j, 1)
				adj.Set(j, i, 1)
			}
		}
	}
	want, err := bt.Trace.Decide(adj)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rt.Trace.Decide(adj)
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatal("healed circuit decides differently")
	}
	// The rebuild re-saved a valid artifact.
	if _, err := cache.Load(shape); err != nil {
		t.Fatalf("artifact not healed: %v", err)
	}
	if st := cache.Stats(); st.Corrupt != 1 {
		t.Errorf("stats %+v, want exactly 1 corrupt detection", st)
	}
}

// Concurrent writers and readers on the same shape: every load must
// observe either a miss or a complete, valid artifact (the atomic
// temp+rename protocol), never a partial file.
func TestConcurrentSaveLoad(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shape := core.Shape{Op: core.OpMatMul, N: 4, Alg: "strassen"}
	bt, err := core.BuildShape(shape, 0)
	if err != nil {
		t.Fatal(err)
	}

	const writers, readers, rounds = 4, 4, 8
	var wg sync.WaitGroup
	errc := make(chan error, writers*rounds+readers*rounds)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := cache.Save(bt); err != nil {
					errc <- err
				}
			}
		}()
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				_, err := cache.Load(shape)
				if err != nil && !errors.Is(err, ErrMiss) {
					errc <- fmt.Errorf("reader observed %w", err)
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// No stranded temp files.
	matches, err := filepath.Glob(filepath.Join(cache.Dir(), ".tcs-tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("stranded temp files: %v", matches)
	}
}

// Fingerprints are stable per shape, distinct across shapes, and pinned:
// an existing cache directory stays addressable only while the literal
// address of every shape is unchanged.
func TestFingerprint(t *testing.T) {
	golden := core.Shape{Op: core.OpMatMul, N: 4, Alg: "strassen"}
	if got, want := Fingerprint(golden), "6212515bbd8d7fa5c3b46e1ca518b4221625e181798a24017a6e3f7d671f46fa"; got != want {
		t.Errorf("Fingerprint(%s) = %s, want %s", golden.Key(), got, want)
	}

	seen := map[string]core.Shape{}
	for _, s := range testShapes() {
		fp := Fingerprint(s)
		if len(fp) != 64 {
			t.Fatalf("fingerprint %q is not hex SHA-256", fp)
		}
		if prev, dup := seen[fp]; dup {
			t.Fatalf("shapes %v and %v share fingerprint %s", prev, s, fp)
		}
		seen[fp] = s
		if Fingerprint(s) != fp {
			t.Fatal("fingerprint not deterministic")
		}
	}
	// Tau participates (same op/N/alg, different threshold).
	a := core.Shape{Op: core.OpTrace, N: 4, Tau: 2, Alg: "strassen"}
	b := a
	b.Tau = 3
	if Fingerprint(a) == Fingerprint(b) {
		t.Error("tau does not affect the fingerprint")
	}
}
