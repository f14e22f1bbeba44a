package store

import (
	"fmt"
	"os"

	"repro/internal/core"
)

// Mapping is an open, memory-mapped TCS2 artifact together with the
// Built decoded from it. The circuit's wire and weight arenas alias the
// mapped pages directly — the kernel faults them in on first touch and
// shares them across processes mapping the same artifact — so the Built
// must not be used after Close. A nil-data Mapping (heap fallback)
// makes Close a no-op, letting callers treat both paths uniformly.
type Mapping struct {
	built *core.Built
	data  []byte // nil when the heap fallback was used
}

// Built returns the decoded artifact. Valid until Close.
func (m *Mapping) Built() *core.Built { return m.built }

// Mapped reports whether the circuit aliases a live file mapping (as
// opposed to the heap fallback).
func (m *Mapping) Mapped() bool { return m.data != nil }

// Close releases the file mapping. Any circuit obtained from Built
// must no longer be evaluated or inspected afterwards.
func (m *Mapping) Close() error {
	if m.data == nil {
		return nil
	}
	d := m.data
	m.data = nil
	return munmap(d)
}

// MapSupported reports whether loads on this platform are served from
// file mappings (false means every load takes the heap fallback).
func MapSupported() bool { return mmapSupported }

// MapCircuit opens a TCS2 artifact, maps it read-only and restores the
// Built for shape with the hot arenas aliased in place: integrity is
// verified (root digest plus every segment leaf, at CRC bandwidth) and
// the group structure decoded, but the multi-hundred-megabyte wire and
// weight dictionaries are never copied or even touched beyond the
// checksum pass. On platforms without mmap — or if the map itself
// fails — it falls back to a heap decode of the same bytes, so callers
// get identical semantics everywhere.
func MapCircuit(path string, shape core.Shape) (*Mapping, error) {
	if !mmapSupported {
		return heapFallback(path, shape)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close() // the mapping outlives the descriptor
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if st.Size() < tcs2TailLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any TCS2 envelope", ErrCorrupt, st.Size())
	}
	data, err := mmapFile(f, st.Size())
	if err != nil {
		return heapFallback(path, shape)
	}
	built, err := decodeTCS2(shape, data, true)
	if err != nil {
		_ = munmap(data)
		return nil, err
	}
	return &Mapping{built: built, data: data}, nil
}

func heapFallback(path string, shape core.Shape) (*Mapping, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	built, err := DecodeTCS2(shape, data)
	if err != nil {
		return nil, err
	}
	return &Mapping{built: built}, nil
}
