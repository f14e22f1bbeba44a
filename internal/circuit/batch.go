// Batched, bit-sliced circuit evaluation.
//
// Every serving workload this library targets — Monte Carlo energy
// estimation, triangle queries over many graphs, matmul over many
// matrix pairs — evaluates the *same* circuit on many independent input
// vectors. Evaluator amortizes the per-sample cost by packing 64
// samples into one uint64 word per wire (a "bit plane") and evaluating
// gate-major: each incoming wire's plane is loaded once per 64 samples
// instead of once per sample, the weight array is streamed once per
// group instead of once per gate evaluation, and scratch memory (plane
// arena, counters) is allocated once per Evaluator instead of once per
// call.
//
// One kernel evaluates every gate group, and the group's weighted sum
// never leaves bit-sliced form. Each incoming plane is added into a
// counter at every set bit of |w| (the paper's layers use ±1 and ±2^k
// weights, so an edge is usually one add); negative weights add the
// complemented plane and owe |w|, which is subtracted once per group.
// Each gate then tests sum >= t a word at a time, most significant
// plane first, over just enough planes for the sum (at most 64, where
// the arithmetic wraps modulo 2^64 exactly as int64 sums do).
//
// Parallelism reuses one persistent worker pool across levels and
// calls: batches spanning several 64-sample blocks are split
// block-parallel (blocks are fully independent), while a single block
// falls back to level-by-level gate-group parallelism exactly like
// EvalParallel. workers == 1 stays fully sequential — no pool is ever
// created, no goroutine is ever woken.
package circuit

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
)

// Planes is a batch of wire assignments in bit-packed form: sample s of
// wire w is bit s%64 of the word for block s/64. Storage is block-major
// (all wires of one 64-sample block are contiguous), which is the order
// the evaluation engine touches them in.
type Planes struct {
	numWires int
	batch    int
	words    []uint64 // [block][wire] -> words[blk*numWires+wire]
}

// NewPlanes returns an all-false plane batch for the given number of
// wires and samples.
func NewPlanes(numWires, batch int) *Planes {
	p := new(Planes)
	p.Reset(numWires, batch)
	return p
}

// PackBools packs per-sample boolean rows (each of equal length) into
// bit planes. It is the input-side constructor for EvalPlanes.
func PackBools(rows [][]bool) *Planes {
	if len(rows) == 0 {
		return &Planes{}
	}
	p := NewPlanes(len(rows[0]), len(rows))
	for s, row := range rows {
		p.SetRow(s, row)
	}
	return p
}

// Reset reshapes p to hold numWires x batch all-false planes, reusing
// the existing word storage when it is large enough. Zeroing the words
// re-establishes the zero-tail invariant (bits at and past the batch
// size in the final partial block are 0) that PackBools guarantees and
// every consumer of partial batches relies on, so a Planes recycled
// across coalesced serving batches of different sizes can never leak a
// previous batch's samples into the padding lanes.
func (p *Planes) Reset(numWires, batch int) {
	if numWires < 0 || batch < 0 {
		panic(fmt.Sprintf("circuit: invalid plane shape %d wires x %d samples", numWires, batch))
	}
	p.reshape(numWires, batch)
	clear(p.words)
}

// reshape sets p's shape, reusing its word storage when it is large
// enough; the words' contents are left as they are.
func (p *Planes) reshape(numWires, batch int) {
	if need := planeBlocks(batch) * numWires; cap(p.words) < need {
		p.words = make([]uint64, need)
	} else {
		p.words = p.words[:need]
	}
	p.numWires, p.batch = numWires, batch
}

// SetRow sets sample s to the given boolean row. Bits are written in
// both directions (false clears), so rows may be overwritten freely;
// combined with Reset this is the fan-in path the request coalescer
// uses to assemble a ragged batch without per-batch allocation.
func (p *Planes) SetRow(s int, row []bool) {
	if s < 0 || s >= p.batch {
		panic(fmt.Sprintf("circuit: sample %d out of range [0,%d)", s, p.batch))
	}
	if len(row) != p.numWires {
		panic(fmt.Sprintf("circuit: row has %d values, want %d", len(row), p.numWires))
	}
	base := (s / 64) * p.numWires
	bit := uint64(1) << uint(s%64)
	for w, v := range row {
		if v {
			p.words[base+w] |= bit
		} else {
			p.words[base+w] &^= bit
		}
	}
}

// planeBlocks returns the number of 64-sample blocks covering batch.
func planeBlocks(batch int) int { return (batch + 63) / 64 }

// NumWires returns the number of wires per sample.
func (p *Planes) NumWires() int { return p.numWires }

// Batch returns the number of samples.
func (p *Planes) Batch() int { return p.batch }

// Get returns the value of wire w for sample s.
func (p *Planes) Get(w Wire, s int) bool {
	if s < 0 || s >= p.batch {
		panic(fmt.Sprintf("circuit: sample %d out of range [0,%d)", s, p.batch))
	}
	return p.words[(s/64)*p.numWires+int(w)]>>uint(s%64)&1 == 1
}

// Assignment extracts sample s as a flat []bool wire assignment,
// appending into dst (pass nil to allocate). The result is layout-
// compatible with Circuit.Eval's return value.
func (p *Planes) Assignment(s int, dst []bool) []bool {
	if cap(dst) < p.numWires {
		dst = make([]bool, p.numWires)
	}
	dst = dst[:p.numWires]
	base := (s / 64) * p.numWires
	shift := uint(s % 64)
	for w := range dst {
		dst[w] = p.words[base+w]>>shift&1 == 1
	}
	return dst
}

// Gather builds a new plane batch holding only the given wires, in
// order — the zero-copy-pipeline primitive: gather one circuit's output
// wires to feed them as the next circuit's input planes.
func (p *Planes) Gather(wires []Wire) *Planes {
	return p.GatherInto(nil, wires)
}

// GatherInto is Gather with a reusable destination: dst is reshaped
// (reusing its storage when possible) and filled with the selected wire
// planes. Pass nil to allocate. Gathered planes inherit p's zero tails,
// so the fan-out side of a coalesced batch never sees padding samples.
func (p *Planes) GatherInto(dst *Planes, wires []Wire) *Planes {
	if dst == nil {
		dst = &Planes{}
	}
	dst.reshape(len(wires), p.batch)
	for blk := 0; blk < planeBlocks(p.batch); blk++ {
		src := p.words[blk*p.numWires:]
		out := dst.words[blk*len(wires):]
		for i, w := range wires {
			out[i] = src[w]
		}
	}
	return dst
}

// Clone returns an independent copy (the Planes returned by EvalPlanes
// borrows the evaluator's arena; Clone detaches it).
func (p *Planes) Clone() *Planes {
	return &Planes{numWires: p.numWires, batch: p.batch, words: append([]uint64(nil), p.words...)}
}

// CountTrue returns, per sample, how many of the wires in [lo, hi)
// are true — the popcount reduction behind batched energy accounting.
func (p *Planes) CountTrue(lo, hi Wire) []int64 {
	out := make([]int64, p.batch)
	p.addCounts(out, lo, hi)
	return out
}

// addCounts adds CountTrue(lo, hi) into out.
func (p *Planes) addCounts(out []int64, lo, hi Wire) {
	for blk := 0; blk < planeBlocks(p.batch); blk++ {
		src := p.words[blk*p.numWires:]
		base := blk * 64
		for w := lo; w < hi; w++ {
			for x := src[w]; x != 0; x &= x - 1 {
				out[base+bits.TrailingZeros64(x)]++ // tail bits are zero-masked
			}
		}
	}
}

// EnergyBatch returns the per-sample energy (number of firing gates,
// the Uchizawa et al. measure) from a full wire-plane batch as produced
// by Evaluator.EvalPlanes.
func (c *Circuit) EnergyBatch(p *Planes) []int64 {
	if p.numWires != c.numInputs+c.Size() {
		panic(fmt.Sprintf("circuit: planes hold %d wires, circuit has %d", p.numWires, c.numInputs+c.Size()))
	}
	return p.CountTrue(Wire(c.numInputs), Wire(c.numInputs+c.Size()))
}

// EnergyLevelsBatch returns the per-sample firing-gate counts at each
// level 1..Depth — the batched form of EnergyByLevel, and the
// firing-count hook behind the serving layer's energy-budget mode.
// out[l][s] is the number of level-(l+1) gates firing for sample s;
// summing a sample's column reproduces EnergyBatch exactly (both are
// popcounts over the same gate planes, so batched and per-sample energy
// accounting can never disagree).
func (c *Circuit) EnergyLevelsBatch(p *Planes) [][]int64 {
	if p.numWires != c.numInputs+c.Size() {
		panic(fmt.Sprintf("circuit: planes hold %d wires, circuit has %d", p.numWires, c.numInputs+c.Size()))
	}
	out := make([][]int64, c.depth)
	for l := range out {
		out[l] = make([]int64, p.batch)
	}
	for _, gr := range c.groups {
		lo := Wire(c.numInputs) + Wire(gr.gateStart)
		p.addCounts(out[gr.level-1], lo, lo+Wire(gr.gateCount))
	}
	return out
}

// poolTask is one unit of work for the persistent pool: fn receives the
// executing worker's id so it can use per-worker scratch.
type poolTask struct {
	fn func(worker int)
	wg *sync.WaitGroup
}

// workerPool is a fixed set of goroutines that persist across levels
// and calls, replacing the per-level goroutine spawning of
// EvalParallel. It exists only for workers >= 2.
type workerPool struct {
	tasks chan poolTask
	once  sync.Once
}

func newWorkerPool(workers int) *workerPool {
	p := &workerPool{tasks: make(chan poolTask)}
	for id := 0; id < workers; id++ {
		go func(id int) {
			for t := range p.tasks {
				t.fn(id)
				t.wg.Done()
			}
		}(id)
	}
	return p
}

func (p *workerPool) submit(wg *sync.WaitGroup, fn func(worker int)) {
	wg.Add(1)
	p.tasks <- poolTask{fn: fn, wg: wg}
}

func (p *workerPool) close() { p.once.Do(func() { close(p.tasks) }) }

// Evaluator is a reusable batch-evaluation engine for one circuit.
// Construct once per circuit, evaluate any number of batches; scratch
// (plane arena, counters, worker pool) is owned by the evaluator and
// reused across calls. An Evaluator must not be used from multiple
// goroutines concurrently (it parallelizes internally).
type Evaluator struct {
	c       *Circuit
	workers int
	pool    *workerPool // nil iff workers == 1

	arena Planes // full wire planes, grown to the largest batch seen

	// Per-slot kernel scratch, indexed by pool-worker id; slot `workers`
	// is the calling goroutine's (used on every sequential path).
	work []groupWork

	scratch []bool // wire array reused by Eval (single sample)
}

// NewEvaluator builds an evaluation engine for c. workers <= 0 selects
// GOMAXPROCS; workers == 1 is fully sequential (no worker pool, no
// goroutines). Call Close when done to release the pool (a finalizer
// backstops forgotten Closes).
func NewEvaluator(c *Circuit, workers int) *Evaluator {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Evaluator{c: c, workers: workers, work: make([]groupWork, workers+1)}
	if workers > 1 {
		e.pool = newWorkerPool(workers)
		runtime.SetFinalizer(e, func(ev *Evaluator) { ev.pool.close() })
	}
	return e
}

// Circuit returns the circuit this evaluator was built for.
func (e *Evaluator) Circuit() *Circuit { return e.c }

// Close releases the worker pool. The evaluator must not be used after
// Close. Safe to call multiple times; a no-op for workers == 1.
func (e *Evaluator) Close() {
	if e.pool != nil {
		e.pool.close()
		runtime.SetFinalizer(e, nil)
	}
}

// Eval evaluates a single input vector, reusing the evaluator's
// scratch wire array: semantically identical to Circuit.Eval but free
// of per-call allocation. The returned slice is valid until the next
// Eval call on this evaluator.
func (e *Evaluator) Eval(inputs []bool) []bool {
	e.scratch = e.c.EvalInto(inputs, e.scratch)
	return e.scratch
}

// EvalBatch evaluates one input vector per row and returns the full
// wire assignment per row, bit-for-bit identical to calling
// Circuit.Eval on each row. Rows beyond the first may be processed on
// pool workers; results are freshly allocated and safe to retain.
func (e *Evaluator) EvalBatch(inputs [][]bool) [][]bool {
	if len(inputs) == 0 {
		return nil
	}
	p := e.EvalPlanes(PackBools(inputs))
	out := make([][]bool, len(inputs))
	for s := range out {
		out[s] = p.Assignment(s, nil)
	}
	return out
}

// EvalPlanes evaluates a packed input batch (numWires == NumInputs)
// and returns the packed planes of every wire. The result borrows the
// evaluator's arena: it is valid until the next Eval*/Close call on
// this evaluator — Clone it to retain, Gather to pipeline outputs into
// another circuit's inputs without unpacking.
func (e *Evaluator) EvalPlanes(in *Planes) *Planes {
	c := e.c
	if in.numWires != c.numInputs {
		panic(fmt.Sprintf("circuit: %d input planes supplied, want %d", in.numWires, c.numInputs))
	}
	nw := c.numInputs + c.Size()
	nblk := planeBlocks(in.batch)
	e.arena.reshape(nw, in.batch)
	// Copy the input planes into the arena block by block. PackBools
	// leaves tail bits (samples >= batch) zero; evalBlock preserves that
	// invariant for gate planes via tail masking.
	for blk := 0; blk < nblk; blk++ {
		copy(e.arena.words[blk*nw:blk*nw+c.numInputs], in.words[blk*in.numWires:(blk+1)*in.numWires])
	}

	switch {
	case e.pool == nil:
		for blk := 0; blk < nblk; blk++ {
			e.evalBlock(blk, e.workers)
		}
	case nblk > 1:
		// Blocks are independent: split them across the pool with no
		// level barriers at all.
		var wg sync.WaitGroup
		chunk := (nblk + e.workers - 1) / e.workers
		for lo := 0; lo < nblk; lo += chunk {
			lo, hi := lo, min(lo+chunk, nblk)
			e.pool.submit(&wg, func(worker int) {
				for blk := lo; blk < hi; blk++ {
					e.evalBlock(blk, worker)
				}
			})
		}
		wg.Wait()
	default:
		e.evalBlockParallel(0)
	}
	return &e.arena
}

// evalBlock evaluates every gate group of one 64-sample block
// sequentially, using scratch slot `slot`.
func (e *Evaluator) evalBlock(blk, slot int) {
	planes, mask := e.blockPlanes(blk)
	for gi := range e.c.groups {
		e.evalGroupPlanes(int32(gi), planes, mask, slot)
	}
}

// evalBlockParallel evaluates one block level by level, fanning large
// levels across the persistent pool (the single-block analogue of
// EvalParallel, without per-level goroutine spawning).
func (e *Evaluator) evalBlockParallel(blk int) {
	planes, mask := e.blockPlanes(blk)
	var wg sync.WaitGroup
	for _, gis := range e.c.levelGroups {
		if len(gis) < seqLevelFactor*e.workers {
			for _, gi := range gis {
				e.evalGroupPlanes(gi, planes, mask, e.workers)
			}
			continue
		}
		chunk := (len(gis) + e.workers - 1) / e.workers
		for lo := 0; lo < len(gis); lo += chunk {
			part := gis[lo:min(lo+chunk, len(gis))]
			e.pool.submit(&wg, func(worker int) {
				for _, gi := range part {
					e.evalGroupPlanes(gi, planes, mask, worker)
				}
			})
		}
		wg.Wait()
	}
}

// blockPlanes returns block blk's wire-plane slice and its tail mask
// (all-ones except for the final partial block, where bits at and past
// the batch size are forced to zero).
func (e *Evaluator) blockPlanes(blk int) ([]uint64, uint64) {
	nw := e.arena.numWires
	planes := e.arena.words[blk*nw : (blk+1)*nw]
	mask := ^uint64(0)
	if rem := e.arena.batch - blk*64; rem < 64 {
		mask = 1<<uint(rem) - 1
	}
	return planes, mask
}

// evalGroupPlanes is the batched analogue of evalGroup: one bit-sliced
// sum per group, one compare per member gate (see the package comment).
func (e *Evaluator) evalGroupPlanes(gi int32, planes []uint64, mask uint64, slot int) {
	c := e.c
	gr := &c.groups[gi]
	wk := &e.work[slot]
	wires := c.wires[gr.inStart:gr.inEnd]
	ws := c.weights[gr.wOff : gr.wOff+int64(len(wires))]
	wb := gr.wireBase
	var debt uint64 // |w| summed over the negative edges that fired
	for i, rw := range wires {
		x := planes[wb+rw]
		if x == 0 {
			continue
		}
		// A negative weight adds its complement, -x·|w| = ^x·|w| - |w|,
		// and owes |w| per lane. math.MinInt64 gives |w| = 2^63.
		neg := uint64(ws[i] >> 63)
		x ^= neg
		m := (uint64(ws[i]) ^ neg) - neg
		debt += m & neg
		for ; m != 0; m &= m - 1 {
			wk.ctr.add(x, bits.TrailingZeros64(m))
		}
	}
	width := wk.minus(debt)
	sum := wk.sum[:width]
	// Flipping the sign plane biases the sum by 2^(width-1) to unsigned.
	sum[width-1] = ^sum[width-1]
	lo := int64(-1) << uint(width-1) // smallest representable sum

	// Compare most significant plane first: gt[j] marks lanes already
	// above tb after planes width-1..j, eq[j] lanes still equal to it.
	// Levels valid..width hold for the previous threshold, so a gate
	// resumes below the high bits it shares with it: a Lemma 3.1 bank of
	// thresholds 1..2^k costs O(1) planes per gate. Below tb's lowest
	// set bit gt|eq no longer changes.
	gt, eq := wk.gt[:width+1], wk.eq[:width+1]
	gt[width], eq[width] = 0, ^uint64(0)
	valid := width
	var prev uint64
	outBase := c.numInputs + int(gr.gateStart)
	for k, t := range c.thresholds[gr.gateStart : gr.gateStart+gr.gateCount] {
		switch {
		case t <= lo:
			planes[outBase+k] = mask
		case width < sumPlanes && t > ^lo:
			planes[outBase+k] = 0
		default:
			tb := uint64(t) - uint64(lo)
			stop := bits.TrailingZeros64(tb)
			j := max(valid-1, bits.Len64(tb^prev)-1)
			for ; j >= stop; j-- {
				a := sum[j]
				if tb>>uint(j)&1 == 1 {
					gt[j], eq[j] = gt[j+1], eq[j+1]&a
				} else {
					gt[j], eq[j] = gt[j+1]|eq[j+1]&a, eq[j+1]&^a
				}
			}
			valid, prev = j+1, tb
			planes[outBase+k] = (gt[stop] | eq[stop]) & mask
		}
	}
}

// sumPlanes is the bit-sliced counter width: 64 planes hold any int64
// sum modulo 2^64.
const sumPlanes = 64

// groupWork is one worker's scratch for evalGroupPlanes.
type groupWork struct {
	ctr    counter
	sum    [sumPlanes]uint64
	gt, eq [sumPlanes + 1]uint64
}

// counter is a bit-sliced counter that defers its carries: lane s holds
// Σ_j 2^j·(bit s of each plane pending at position j), modulo 2^64. The
// seventh plane at a position compresses its list to one plane there
// and one at each of the next two positions with four full adders, so
// an add never ripples; a plain binary counter would carry while any of
// the 64 lanes does, about six planes per add on random data.
type counter struct {
	pend    [sumPlanes][pendCap]uint64
	n       [sumPlanes]uint8 // planes pending at each position
	touched uint64           // bit j: position j may hold planes
}

// pendCap is the most planes a position holds between compressions.
const pendCap = 6

// add adds plane x at position j (x·2^j per lane).
func (c *counter) add(x uint64, j int) {
	k := c.n[j]
	if k == pendCap {
		c.compress(x, j)
		return
	}
	c.pend[j][k] = x
	c.n[j] = k + 1
	c.touched |= 1 << uint(j)
}

// compress folds position j's six pending planes and x into one plane
// at j, one at j+1 and one at j+2.
func (c *counter) compress(x uint64, j int) {
	p := &c.pend[j]
	s1, c1 := fullAdd(p[0], p[1], p[2])
	s2, c2 := fullAdd(p[3], p[4], p[5])
	s, c3 := fullAdd(s1, s2, x)
	t, u := fullAdd(c1, c2, c3)
	p[0], c.n[j] = s, 1
	if t != 0 && j+1 < sumPlanes {
		c.add(t, j+1)
	}
	if u != 0 && j+2 < sumPlanes {
		c.add(u, j+2)
	}
}

// resolve writes the counter's value into out as plain binary planes,
// clears the counter and returns the number of planes written. Carries
// past the top position are dropped (arithmetic modulo 2^64).
func (c *counter) resolve(out *[sumPlanes]uint64) int {
	j := 0
	for ; j < bits.Len64(c.touched); j++ {
		p := &c.pend[j]
		m := int(c.n[j])
		for ; m > 1; m-- {
			var s, cy uint64
			if m > 2 {
				s, cy = fullAdd(p[m-3], p[m-2], p[m-1])
				m--
			} else {
				s, cy = p[0]^p[1], p[0]&p[1]
			}
			p[m-2] = s
			if cy != 0 && j+1 < sumPlanes {
				c.add(cy, j+1)
			}
		}
		out[j] = p[0] & -uint64(m) // m is 0 or 1 here
		c.n[j] = 0
	}
	c.touched = 0
	return j
}

func fullAdd(a, b, c uint64) (sum, carry uint64) {
	t := a ^ b
	return t ^ c, a&b | t&c
}

// minus resolves the counter less debt into w.sum as width planes of
// two's complement and clears the counter. The counter is below
// 2^planes and debt below 2^bits.Len64(debt), so one more plane holds
// the sign; at 64 planes the arithmetic wraps modulo 2^64 exactly as
// int64 sums do.
func (w *groupWork) minus(debt uint64) int {
	np := w.ctr.resolve(&w.sum)
	width := min(max(np, bits.Len64(debt))+1, sumPlanes)
	clear(w.sum[np:width])
	var br uint64
	for j, a := range w.sum[:width] {
		if debt>>uint(j)&1 == 1 {
			w.sum[j], br = ^(a ^ br), ^a|br
		} else {
			w.sum[j], br = a^br, ^a&br
		}
	}
	return width
}
