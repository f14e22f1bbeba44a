package core

import (
	"fmt"

	"repro/internal/arith"
	"repro/internal/bitio"
	"repro/internal/circuit"
	"repro/internal/tctree"
)

// The flat circuit serializes itself (circuit.WriteTo/Read), but a
// *Built* is more than its gates: the typed wrappers carry the decode
// maps — per-entry signed output representations for matmul, the
// half-trace representation for count, the decision wire for trace —
// plus the realized schedule and the per-phase gate audit. BuiltMeta is
// exactly that residue, exported so internal/store can persist a Built
// and restore it without rebuilding. RestoreBuilt cross-checks the
// metadata against the circuit's marked outputs, so a corrupted or
// mismatched metadata section is rejected rather than producing a
// wrapper that silently mis-decodes.

// BuiltMeta is the serializable typed-wrapper state of a Built beyond
// the flat circuit itself.
type BuiltMeta struct {
	// Schedule is the realized tree-level schedule.
	Schedule tctree.Schedule
	// Audit is the per-phase gate attribution recorded at build time.
	Audit Audit
	// Reps are the signed output representations: the N*N matrix entries
	// for OpMatMul (row-major), the single half-trace value for OpCount,
	// empty for OpTrace.
	Reps []arith.Signed
	// Output is OpTrace's decision wire; zero otherwise.
	Output circuit.Wire
}

// Meta extracts the wrapper state needed to restore b later.
func (b *Built) Meta() BuiltMeta {
	switch {
	case b.MatMul != nil:
		return BuiltMeta{Schedule: b.MatMul.Schedule, Audit: b.MatMul.Audit, Reps: b.MatMul.entries}
	case b.Trace != nil:
		return BuiltMeta{Schedule: b.Trace.Schedule, Audit: b.Trace.Audit, Output: b.Trace.output}
	case b.Count != nil:
		return BuiltMeta{Schedule: b.Count.Schedule, Audit: b.Count.Audit,
			Reps: []arith.Signed{b.Count.halfTrace}}
	}
	panic("core: empty Built")
}

// RestoreBuilt reassembles the typed wrapper for shape around an
// already-deserialized circuit. It validates that the metadata is
// consistent with both the shape (entry counts, input layout, schedule)
// and the circuit (every rep wire must exist, and the reps' term
// enumeration must match the circuit's marked outputs exactly — the
// order DecodeOutputs depends on). The restored Built is
// indistinguishable from a freshly constructed one.
func RestoreBuilt(s Shape, c *circuit.Circuit, m BuiltMeta) (*Built, error) {
	opts, err := s.Options(0)
	if err != nil {
		return nil, err
	}
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if s.N < 1 || !isPowOrOne(opts.Alg.T, s.N) {
		return nil, fmt.Errorf("core: restore: N=%d is not a power of T=%d", s.N, opts.Alg.T)
	}
	if err := m.Schedule.Validate(bitio.Log(opts.Alg.T, s.N)); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}

	per := opts.perEntry()
	matrices := 1
	if s.Op == OpMatMul {
		matrices = 2
	}
	if want := matrices * s.N * s.N * per; c.NumInputs() != want {
		return nil, fmt.Errorf("core: restore: circuit has %d inputs, shape %s needs %d",
			c.NumInputs(), s.Key(), want)
	}

	bt := &Built{Shape: s}
	switch s.Op {
	case OpMatMul:
		if len(m.Reps) != s.N*s.N {
			return nil, fmt.Errorf("core: restore: %d entry reps, want %d", len(m.Reps), s.N*s.N)
		}
		if err := checkReps(c, m.Reps); err != nil {
			return nil, fmt.Errorf("core: restore: %w", err)
		}
		bt.MatMul = &MatMulCircuit{Circuit: c, N: s.N, Opts: opts, Schedule: m.Schedule,
			Audit: m.Audit, entries: m.Reps}
	case OpTrace:
		if len(m.Reps) != 0 {
			return nil, fmt.Errorf("core: restore: trace circuit carries %d reps, want 0", len(m.Reps))
		}
		outs := c.Outputs()
		if len(outs) != 1 || outs[0] != m.Output {
			return nil, fmt.Errorf("core: restore: trace output wire %d does not match circuit outputs %v",
				m.Output, outs)
		}
		bt.Trace = &TraceCircuit{Circuit: c, N: s.N, Tau: s.Tau, Opts: opts, Schedule: m.Schedule,
			Audit: m.Audit, output: m.Output}
	case OpCount:
		if len(m.Reps) != 1 {
			return nil, fmt.Errorf("core: restore: %d count reps, want 1", len(m.Reps))
		}
		if err := checkReps(c, m.Reps); err != nil {
			return nil, fmt.Errorf("core: restore: %w", err)
		}
		bt.Count = &CountCircuit{Circuit: c, N: s.N, Opts: opts, Schedule: m.Schedule,
			Audit: m.Audit, halfTrace: m.Reps[0]}
	default:
		return nil, fmt.Errorf("core: restore: unknown op %q", s.Op)
	}
	return bt, nil
}

// checkReps verifies that the signed representations reference only
// wires the circuit has, carry positive weights, and enumerate — per
// rep, positive terms then negative terms — exactly the circuit's
// marked outputs in order. DecodeOutputs walks the reps in that order
// against Outputs(), so this equality is precisely what makes a
// restored wrapper decode correctly.
func checkReps(c *circuit.Circuit, reps []arith.Signed) error {
	outs := c.Outputs()
	idx := 0
	check := func(r arith.Rep) error {
		for _, t := range r.Terms {
			if t.Weight <= 0 {
				return fmt.Errorf("rep term on wire %d has non-positive weight %d", t.Wire, t.Weight)
			}
			if idx >= len(outs) {
				return fmt.Errorf("reps enumerate more than the circuit's %d outputs", len(outs))
			}
			if t.Wire != outs[idx] {
				return fmt.Errorf("rep term %d is wire %d, circuit output is %d", idx, t.Wire, outs[idx])
			}
			idx++
		}
		if r.Max < 0 {
			return fmt.Errorf("rep has negative magnitude bound %d", r.Max)
		}
		return nil
	}
	for _, s := range reps {
		if err := check(s.Pos); err != nil {
			return err
		}
		if err := check(s.Neg); err != nil {
			return err
		}
	}
	if idx != len(outs) {
		return fmt.Errorf("reps enumerate %d output terms, circuit marks %d", idx, len(outs))
	}
	return nil
}
