// Package store persists built circuits: the TCS2 envelope (tcs2.go)
// around a deduplicated encoding of the circuit plus the typed-wrapper
// metadata (core.BuiltMeta), and a content-addressed on-disk cache
// keyed by a SHA-256 fingerprint of the shape and the format version.
//
// The economics mirror an inference stack: construction is seconds of
// CPU for large N (even parallelized — see internal/core's pipeline),
// evaluation is microseconds, and the artifact is deterministic per
// core.Shape. So the circuit is built once, fingerprinted, and
// reloaded everywhere else — a mapped cache load is an order of
// magnitude cheaper than a rebuild (tcbench e26 measures it).
//
// Every validation layer must pass before a circuit is handed out: the
// segment checksums and root digest catch corruption and truncation;
// the shape key is stored in clear and must match the requested shape
// exactly, so a fingerprint collision or a renamed file cannot smuggle
// the wrong circuit in; and the circuit structure and the metadata are
// re-validated on restore (core.RestoreBuilt).
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

var (
	// ErrMiss reports that the cache holds no artifact for the shape.
	ErrMiss = errors.New("store: cache miss")
	// ErrCorrupt reports that an artifact exists but failed validation
	// (checksum, structure, or shape mismatch); callers should rebuild.
	ErrCorrupt = errors.New("store: corrupt artifact")
	// ErrVersion reports an artifact written by a different format
	// version — intact, but unreadable by this build. It wraps
	// ErrCorrupt so a plain errors.Is(err, ErrCorrupt) treats both as
	// "rebuild"; in practice the fingerprint includes the version, so
	// this only surfaces for hand-renamed files.
	ErrVersion = fmt.Errorf("%w (format version mismatch)", ErrCorrupt)
)

// Fingerprint returns the content address of a shape's artifact: the
// hex SHA-256 of the format version and the shape's canonical key
// (which covers op, N, tau, algorithm, and every circuit-shaping
// Options field). Equal shapes build bit-identical circuits, so the
// fingerprint names the artifact, not a particular build of it — and
// because the version is hashed in, a format bump moves every artifact
// to a fresh address instead of misreading the old files.
func Fingerprint(s core.Shape) string {
	h := sha256.New()
	fmt.Fprintf(h, "tcstore\x00v%d\x00%s", FormatVersionTCS2, s.Key())
	return hex.EncodeToString(h.Sum(nil))
}

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	Hits    int64 `json:"hits"`     // successful loads
	Misses  int64 `json:"misses"`   // absent artifacts
	Corrupt int64 `json:"corrupt"`  // artifacts rejected by validation
	Saves   int64 `json:"saves"`    // artifacts written
	SaveErr int64 `json:"save_err"` // failed writes
	Mapped  int64 `json:"mapped"`   // loads served by an mmap'd artifact
}

// Cache is a content-addressed on-disk store of built circuits. All
// methods are safe for concurrent use by multiple goroutines and
// multiple processes: writers stage to a temp file and atomically
// rename into place, so readers only ever observe complete artifacts,
// and concurrent writers of the same shape are idempotent (the TCS2
// encoder is deterministic, so last rename wins with identical bytes).
//
// Loads go through the mmap path when the platform supports it: the
// returned circuits alias mapped pages owned by the cache, and stay
// valid until Close. Long-lived processes (the serving stack) simply
// never close — the artifacts are their working set — while tests and
// short-lived tools should Close after the circuits are done with.
type Cache struct {
	dir string

	hits, misses, corrupt, saves, saveErr, mapped atomic.Int64

	mu       sync.Mutex
	mappings []*Mapping
}

// Open returns a cache rooted at dir, creating the directory if needed.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("store: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Path returns the artifact path for a shape, whether or not it exists.
func (c *Cache) Path(s core.Shape) string {
	return filepath.Join(c.dir, Fingerprint(s)+".tcs")
}

// Load reads, validates and restores the cached Built for shape.
// Returns ErrMiss when absent and an ErrCorrupt-wrapping error when
// the artifact fails any validation layer.
//
// The artifact is memory-mapped where the platform supports it (see
// MapCircuit for the heap fallback) and the circuit aliases the
// mapping; see the Cache doc for lifetime rules.
func (c *Cache) Load(shape core.Shape) (*core.Built, error) {
	m, err := MapCircuit(c.Path(shape), shape)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			c.misses.Add(1)
			return nil, ErrMiss
		}
		c.corrupt.Add(1)
		return nil, err
	}
	if m.Mapped() {
		c.mu.Lock()
		c.mappings = append(c.mappings, m)
		c.mu.Unlock()
		c.mapped.Add(1)
	}
	c.hits.Add(1)
	return m.Built(), nil
}

// Close releases every file mapping this cache has handed out. Circuits
// returned by Load must not be used afterwards. Safe to call on caches
// that never mapped anything.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, m := range c.mappings {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.mappings = nil
	return first
}

// Save writes b's TCS2 artifact, staging to a temp file in the same
// directory and renaming into place so concurrent readers and writers
// never observe a partial file. Returns the artifact path.
func (c *Cache) Save(b *core.Built) (string, error) {
	path, err := c.save(b)
	if err != nil {
		c.saveErr.Add(1)
		return "", err
	}
	c.saves.Add(1)
	return path, nil
}

func (c *Cache) save(b *core.Built) (string, error) {
	data, err := EncodeTCS2(b)
	if err != nil {
		return "", err
	}
	path := c.Path(b.Shape)
	tmp, err := os.CreateTemp(c.dir, ".tcs-tmp-*")
	if err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return "", fmt.Errorf("store: write %s: %w", tmp.Name(), err)
	}
	// Flush before rename: an artifact must never become visible under
	// its content address with pages still in flight, or a crash could
	// leave a named-but-hollow file.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", fmt.Errorf("store: sync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("store: close %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", fmt.Errorf("store: publish %s: %w", path, err)
	}
	return path, nil
}

// Remove deletes a shape's artifact (used after detecting corruption).
// A missing file is not an error.
func (c *Cache) Remove(shape core.Shape) error {
	err := os.Remove(c.Path(shape))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// LoadOrBuild resolves a shape from disk, falling back to a build.
// On a hit it returns (built, true, nil). On a miss — or a corrupt
// artifact, which is deleted — it builds with buildWorkers workers,
// saves the result (best-effort: a read-only cache directory degrades
// to build-only operation), and returns (built, false, nil).
func (c *Cache) LoadOrBuild(shape core.Shape, buildWorkers int) (*core.Built, bool, error) {
	built, err := c.Load(shape)
	if err == nil {
		return built, true, nil
	}
	if errors.Is(err, ErrCorrupt) {
		// A damaged artifact never heals; drop it so the rebuild below
		// repopulates the slot.
		_ = c.Remove(shape)
	}
	built, berr := core.BuildShape(shape, buildWorkers)
	if berr != nil {
		return nil, false, berr
	}
	_, _ = c.Save(built)
	return built, false, nil
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Corrupt: c.corrupt.Load(),
		Saves:   c.saves.Load(),
		SaveErr: c.saveErr.Load(),
		Mapped:  c.mapped.Load(),
	}
}
