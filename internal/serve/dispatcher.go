package serve

import (
	"time"

	"repro/internal/circuit"
)

// dispatch is one shard's dispatcher goroutine: it drains its own
// stripe's queue into batches of up to MaxBatch samples, steals from
// sibling stripes when its linger expires with capacity left, evaluates
// each batch in one bit-sliced pass through its private evaluator, and
// fans the output bits back to the waiters.
//
// Wakeup protocol: a dispatcher blocks only after a non-blocking sweep
// of every stripe (own first, then siblings) came back empty, and it
// sleeps on its own queue plus the entry's capacity-1 notify channel.
// Every successful enqueue posts a token, so an enqueue that races the
// empty sweep leaves a token pending and some dispatcher re-sweeps
// after it. The sweep-before-sleep is load-bearing: tokens are dropped
// while the channel is full, so "token consumed" cannot be trusted to
// mean "one request"; what keeps a stalled shard's stripe from
// starving is that no sibling ever sleeps while that stripe is
// non-empty.
//
// Retirement protocol: when done closes (eviction or server shutdown),
// each dispatcher serves final drains over every stripe (not just its
// own — a sibling may already be gone), then retires; the last one out
// closes dead. The ordering — reply to everything dequeued, then close
// dead — is what makes the waiter side sound: after observing dead, a
// waiter's reply is either already buffered in its channel or will
// never arrive, so a non-blocking recheck decides retry-vs-return
// without any further synchronization.
func (s *Server) dispatch(e *entry, shard int) {
	st := &e.stripes[shard]
	defer func() {
		st.ev.Close()
		if e.running.Add(-1) == 0 {
			close(e.dead)
			s.dispatchers.Done() // release the entry's group slot
		}
	}()

	var (
		batch []*request
		in    circuit.Planes  // packed input planes, reused across batches
		out   *circuit.Planes // gathered output planes, reused
		row   []bool          // per-sample output scratch for Assignment
	)
	var linger *time.Timer
	if s.cfg.Linger > 0 {
		linger = time.NewTimer(s.cfg.Linger)
		if !linger.Stop() {
			<-linger.C
		}
		defer linger.Stop()
	}

	for {
		batch = batch[:0]
		// Sweep before sleeping: our own stripe has priority (healthy
		// shards batch their own traffic); siblings are raided only when
		// it is dry, which is exactly when their work would otherwise
		// wait on a busy or stalled owner.
		s.fillFrom(st.queue, &batch)
		if len(batch) == 0 {
			s.steal(e, shard, &batch)
		}
		if len(batch) == 0 {
			select {
			case <-e.done:
				s.finalDrain(e, st, shard, &in, &out, &row)
				return
			case first := <-st.queue:
				batch = append(batch, first)
			case <-e.notify:
				// A request landed while dispatchers were idle — possibly
				// on a stripe whose own dispatcher is busy or stalled. The
				// loop-top sweep gathers whatever the token announced (or
				// finds a sibling already took it).
				continue
			}
		}
		// Coalesce: whatever is already queued on our stripe joins
		// immediately; then linger briefly for stragglers.
		s.fillFrom(st.queue, &batch)
		if len(batch) < s.cfg.MaxBatch && linger != nil {
			linger.Reset(s.cfg.Linger)
		lingering:
			for len(batch) < s.cfg.MaxBatch {
				select {
				case r := <-st.queue:
					batch = append(batch, r)
				case <-linger.C:
					break lingering
				case <-e.done:
					break lingering
				}
			}
			if !linger.Stop() {
				select {
				case <-linger.C:
				default:
				}
			}
		}
		// Work stealing on linger expiry: batch capacity left over after
		// our own stripe ran dry is filled from sibling stripes, so a
		// hot shape's requests coalesce across shards instead of each
		// stripe dispatching a fraction-full batch.
		if len(batch) < s.cfg.MaxBatch {
			s.steal(e, shard, &batch)
		}
		out, row = s.serveBatch(e, st, shard, batch, &in, out, row)
	}
}

// fillFrom non-blockingly moves queued requests from q into the batch.
func (s *Server) fillFrom(q chan *request, batch *[]*request) {
	for len(*batch) < s.cfg.MaxBatch {
		select {
		case r := <-q:
			*batch = append(*batch, r)
		default:
			return
		}
	}
}

// steal non-blockingly fills the batch from sibling stripes (metered).
func (s *Server) steal(e *entry, shard int, batch *[]*request) {
	if len(e.stripes) == 1 {
		return
	}
	before := len(*batch)
	for i := 1; i < len(e.stripes) && len(*batch) < s.cfg.MaxBatch; i++ {
		s.fillFrom(e.stripes[(shard+i)%len(e.stripes)].queue, batch)
	}
	if n := len(*batch) - before; n > 0 {
		s.metrics.steals.Add(int64(n))
	}
}

// finalDrain serves every request still queued at retirement, sweeping
// all stripes: queued work is real accepted work — graceful shutdown
// completes it rather than erroring it — and a sibling dispatcher may
// have retired already, so its stripe is drained here too. The drain
// runs in MaxBatch slices so eviction under load cannot build one
// unbounded batch.
func (s *Server) finalDrain(e *entry, st *stripe, shard int, in *circuit.Planes, out **circuit.Planes, row *[]bool) {
	var batch []*request
	for {
		batch = batch[:0]
		for i := 0; i < len(e.stripes) && len(batch) < s.cfg.MaxBatch; i++ {
			s.fillFrom(e.stripes[(shard+i)%len(e.stripes)].queue, &batch)
		}
		if len(batch) == 0 {
			return
		}
		*out, *row = s.serveBatch(e, st, shard, batch, in, *out, *row)
	}
}

// serveBatch evaluates one coalesced batch on the shard's private
// evaluator and replies to every request. Cancelled requests are
// dropped before the evaluation (their waiters have already returned).
// Returns the reusable scratch.
func (s *Server) serveBatch(e *entry, st *stripe, shard int, batch []*request, in *circuit.Planes, out *circuit.Planes, row []bool) (*circuit.Planes, []bool) {
	if s.evalGate != nil {
		s.evalGate(shard)
	}
	if s.holdBatch != nil {
		s.holdBatch <- struct{}{} // announce: a batch is held
		<-s.holdBatch             // release
	}
	// Drop requests whose context ended while queued.
	live := batch[:0]
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			s.metrics.dropped.Add(1)
			r.reply <- reply{err: err}
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return out, row
	}
	s.metrics.batches.Add(1)
	s.metrics.samples.Add(int64(len(live)))
	s.metrics.batchSize.observe(int64(len(live)))

	start := time.Now()
	if len(live) == 1 {
		// Singleton fast path: a batch of one evaluates cheaper through
		// the scalar engine than through a 1/64-occupied plane pass. On
		// Strassen N=8, 2-bit signed (401,192 gates), one core of a
		// 2-core host: Eval 3.1-4.5 ms, EvalPlanes at batch 1 6.4-8.4 ms.
		s.metrics.singletons.Add(1)
		r := live[0]
		vals := st.ev.Eval(r.in)
		o := make([]bool, len(e.outs))
		for i, w := range e.outs {
			o[i] = vals[w]
		}
		var gates int64
		if r.energy {
			gates = e.built.Circuit().Energy(vals)
			s.metrics.energyRequests.Add(1)
			s.metrics.energyGates.Add(gates)
		}
		s.metrics.evalLatency.observeSince(start)
		r.reply <- reply{out: o, energy: gates}
		return out, row
	}

	// Fan-in: pack the live inputs into reused planes. Reset zeroes the
	// words, re-establishing the zero-tail invariant for the partial
	// final block (pinned by the padding-audit tests in
	// internal/circuit).
	in.Reset(e.built.Circuit().NumInputs(), len(live))
	for i, r := range live {
		in.SetRow(i, r.in)
	}
	planes := st.ev.EvalPlanes(in)
	// Energy accounting rides the same plane pass: one popcount over
	// the gate planes yields every requester's firing count, so the
	// batched figure is bit-identical to the scalar Energy path. The
	// sweep is skipped entirely when no request in the batch asked.
	var energies []int64
	for _, r := range live {
		if r.energy {
			energies = e.built.Circuit().EnergyBatch(planes)
			break
		}
	}
	// Fan-out: gather only the marked-output planes (a few hundred bits
	// per sample) instead of materializing every wire.
	out = planes.GatherInto(out, e.outs)
	s.metrics.evalLatency.observeSince(start)
	for i, r := range live {
		row = out.Assignment(i, row)
		o := make([]bool, len(row))
		copy(o, row)
		var gates int64
		if r.energy {
			gates = energies[i]
			s.metrics.energyRequests.Add(1)
			s.metrics.energyGates.Add(gates)
		}
		r.reply <- reply{out: o, energy: gates}
	}
	return out, row
}
