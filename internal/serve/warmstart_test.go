package serve

import (
	"context"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/store"
)

// A server with a disk cache persists its builds, and a new server
// over the same directory warm-starts from disk on LRU miss — the
// build-once/serve-many restart path. Corrupt artifacts are healed
// transparently.
func TestServerWarmStartsFromDisk(t *testing.T) {
	dir := t.TempDir()
	cache1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	shape := core.Shape{Op: core.OpMatMul, N: 4, Alg: "strassen", EntryBits: 2, Signed: true}
	rng := rand.New(rand.NewSource(77))
	a := matrix.Random(rng, 4, 4, -2, 2)
	b := matrix.Random(rng, 4, 4, -2, 2)

	s1 := New(Config{Cache: cache1})
	want, err := s1.MatMul(context.Background(), shape, a, b)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	snap := s1.Snapshot()
	if snap.DiskHits != 0 || snap.DiskSaves != 1 {
		t.Fatalf("first server: disk_hits=%d disk_saves=%d, want 0/1", snap.DiskHits, snap.DiskSaves)
	}
	if _, err := os.Stat(cache1.Path(shape)); err != nil {
		t.Fatalf("artifact not on disk after first serve: %v", err)
	}

	// Fresh server, fresh LRU, same disk: must load, not rebuild — and
	// with the TCS2 default the load comes off an mmap'd artifact whose
	// arenas the serving circuit aliases for its whole LRU lifetime.
	cache2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Cache: cache2})
	got, err := s2.MatMul(context.Background(), shape, a, b)
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	defer cache2.Close() // after the server: its circuits alias the mapping
	if !want.Equal(got) {
		t.Fatal("warm-started server answers differently")
	}
	snap = s2.Snapshot()
	if snap.DiskHits != 1 || snap.DiskSaves != 0 {
		t.Fatalf("second server: disk_hits=%d disk_saves=%d, want 1/0", snap.DiskHits, snap.DiskSaves)
	}
	if snap.Store == nil || snap.Store.Hits != 1 {
		t.Fatalf("snapshot store stats %+v, want 1 hit", snap.Store)
	}
	if store.MapSupported() && snap.Store.Mapped != 1 {
		t.Fatalf("snapshot store stats %+v, want the warm start mapped", snap.Store)
	}

	// Corrupt the artifact in place; a third server must heal and serve.
	path := cache2.Path(shape)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x5A
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cache3, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s3 := New(Config{Cache: cache3})
	defer s3.Close()
	got, err = s3.MatMul(context.Background(), shape, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatal("healed server answers differently")
	}
	if st := cache3.Stats(); st.Corrupt != 1 || st.Saves != 1 {
		t.Fatalf("healing stats %+v, want 1 corrupt / 1 save", st)
	}
}
