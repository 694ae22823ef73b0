package linalg

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"
)

// redChunk is the fixed reduction chunk: dot products and norms are summed
// as per-chunk partials folded in chunk order, so the result depends only
// on the vector length — never on how many workers computed the chunks.
// This is what makes the parallel kernels bit-for-bit identical to the
// serial ones at any team size and any GOMAXPROCS. Vectors shorter than
// one chunk reduce to the classic single running sum.
const redChunk = 1024

// MaxTeam caps the size of a Team.
const MaxTeam = 64

// ImbalanceObserver receives one per-dispatch load-imbalance measurement in
// microseconds (slowest minus fastest worker busy time). It is satisfied by
// *obs.Histogram without linalg importing the obs package.
type ImbalanceObserver interface{ Observe(us int64) }

// PhaseObserver receives one measurement per fused-phase dispatch: the
// wall-clock microseconds of the whole wake-execute-park cycle. It is
// satisfied by *obs.Histogram; the solver driver wires it to
// "linalg.team.phase.us".
type PhaseObserver interface{ Observe(us int64) }

// kernelOp selects the kernel the worker goroutines execute on the next
// dispatch. Arguments travel through Team fields, not closures, so a
// steady-state dispatch allocates nothing.
type kernelOp int

const (
	opMulVec kernelOp = iota
	opILUFwd
	opILUBwd
	opRun
	opPhase
)

// spinBudget bounds how many atomic-load iterations a worker (or the
// kicking leader) spins before parking on its wake channel. At roughly a
// nanosecond per iteration the budget covers the gap between consecutive
// fused-phase dispatches of a solver iteration, so in a phase-sized hot
// loop the team stays on its cores and a dispatch costs two cache misses
// instead of two scheduler round-trips. Spinning is enabled only when the
// host has a core per team member (see NewTeam); otherwise it would steal
// cycles from the very workers it waits for.
const spinBudget = 4096

// Team is a persistent chunked worker team: a fixed set of goroutines,
// created once and reused for every kernel dispatch, that parallelize the
// hot subsolve kernels by fixed index ranges. All vector work — fused
// elementwise ops, SpMV steps, dot/norm reductions — reaches the team as a
// Phase program through RunPhase; beside it stand only the standalone SpMV,
// the generic Run, and the level-by-level dispatches behind ILU0.SolveWith.
//
// Determinism: every kernel either computes each output element
// independently of the range it arrives in (elementwise ops, SpMV,
// triangular-solve rows) or reduces through the fixed-chunk ordered fold of
// redChunk (dots, norms), so the results are bit-for-bit identical at any
// team size and any GOMAXPROCS.
//
// A nil *Team is valid everywhere and runs every kernel over its whole
// range on the caller, as does a team of size one. A Team is owned by one
// goroutine: its methods must not be called concurrently. Close stops the
// worker goroutines; a hot loop should create one team per worker goroutine
// and keep it for the whole computation (no per-call spawn).
type Team struct {
	n int

	// Spin-then-park dispatch state. epoch is the dispatch generation —
	// the single ground truth workers wait on; the wake channels carry
	// purely advisory tokens for parked goroutines, so a stale or
	// spurious token never corrupts a dispatch (the receiver re-checks
	// epoch and goes back to waiting). remaining counts workers that
	// have not finished the current dispatch; the last one to decrement
	// it wakes the leader if it parked. The parked / leaderParked flags
	// and the epoch / remaining counters form store-then-load pairs on
	// both sides (Dekker-style, all Go atomics are sequentially
	// consistent), so a waiter is woken or sees the state change itself
	// — never neither.
	epoch        atomic.Uint64
	remaining    atomic.Int32
	parked       [MaxTeam]atomic.Int32  // workers 1..n-1: 1 while (about to be) parked
	wake         [MaxTeam]chan struct{} // cap-1 advisory wake tokens, workers 1..n-1
	leaderParked atomic.Int32
	leaderWake   chan struct{}
	stop         atomic.Int32
	spin         int // spin iterations before parking; 0 = park immediately

	// Kernel dispatch arguments, set by the public methods before kick.
	op    kernelOp
	m     *CSR
	f     *ILU0
	ph    *Phase
	x, y  Vector
	split [MaxTeam + 1]int
	runFn func(lo, hi int)

	obs      ImbalanceObserver
	pobs     PhaseObserver
	workerUs [MaxTeam]int64
	closed   bool
}

// spinFor returns the spin budget for a team of n: spin only when the host
// can actually run every team member at once; an oversubscribed team must
// park immediately so the scheduler can run the workers the leader is
// waiting for.
func spinFor(n int) int {
	if n <= 1 {
		return 0
	}
	procs := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < procs {
		procs = c
	}
	if procs >= n {
		return spinBudget
	}
	return 0
}

// NewTeam starts a team of n workers (the calling goroutine counts as one:
// n-1 goroutines are spawned). n is clamped to [1, MaxTeam]; a team of one
// spawns nothing and runs every kernel inline.
func NewTeam(n int) *Team {
	if n < 1 {
		n = 1
	}
	if n > MaxTeam {
		n = MaxTeam
	}
	t := &Team{n: n, spin: spinFor(n)}
	if n > 1 {
		t.leaderWake = make(chan struct{}, 1)
		for w := 1; w < n; w++ {
			t.wake[w] = make(chan struct{}, 1)
			go t.worker(w)
		}
	}
	return t
}

// Size returns the number of workers (1 for a nil team).
func (t *Team) Size() int {
	if t == nil {
		return 1
	}
	return t.n
}

// SetObserver installs a load-imbalance observer: every parallel dispatch
// reports (slowest - fastest) worker busy time in microseconds. A nil
// observer (the default) costs nothing — no timestamps are taken.
func (t *Team) SetObserver(o ImbalanceObserver) {
	if t != nil {
		t.obs = o
	}
}

// SetPhaseObserver installs a fused-phase observer: every RunPhase
// dispatch that actually runs on the team reports its wall-clock cost. A
// nil observer (the default) costs nothing — no timestamps are taken.
func (t *Team) SetPhaseObserver(o PhaseObserver) {
	if t != nil {
		t.pobs = o
	}
}

// Close stops the worker goroutines. The team must be idle; after Close
// the kernels still work, executing serially.
func (t *Team) Close() {
	if t == nil || t.n <= 1 || t.closed {
		return
	}
	t.closed = true
	t.stop.Store(1)
	t.epoch.Add(1)
	for w := 1; w < t.n; w++ {
		if t.parked[w].Load() != 0 {
			select {
			case t.wake[w] <- struct{}{}:
			default:
			}
		}
	}
	t.n = 1
}

// seq reports whether kernels must run inline (nil, single, or closed team).
func (t *Team) seq() bool { return t == nil || t.n <= 1 }

//vetsparse:allocfree
func (t *Team) worker(w int) {
	last := uint64(0)
	for {
		last = t.await(w, last)
		if t.stop.Load() != 0 {
			return
		}
		t.exec(w)
		if t.remaining.Add(-1) == 0 && t.leaderParked.Load() != 0 {
			select {
			case t.leaderWake <- struct{}{}:
			default:
			}
		}
	}
}

// await blocks worker w until a dispatch newer than last arrives: a
// bounded spin on the epoch counter (when the worker has a core to spin
// on), then a park on the wake channel. The parked flag and the epoch
// re-check before blocking close the race against a concurrent kick; any
// token received is advisory and the epoch is re-checked after it.
//
//vetsparse:allocfree
func (t *Team) await(w int, last uint64) uint64 {
	for i := 0; i < t.spin; i++ {
		if e := t.epoch.Load(); e != last {
			return e
		}
	}
	for {
		t.parked[w].Store(1)
		if e := t.epoch.Load(); e != last {
			t.parked[w].Store(0)
			return e
		}
		<-t.wake[w]
		t.parked[w].Store(0)
		if e := t.epoch.Load(); e != last {
			return e
		}
	}
}

// kick runs the prepared kernel on all workers and waits for completion.
// The wake side is batched: one epoch increment publishes the dispatch to
// every spinning worker at once, and only actually-parked workers cost a
// channel send. The join side is the mirror: the leader spins on the
// remaining counter, parking only when the workers outlast its budget.
//
//vetsparse:allocfree
func (t *Team) kick() {
	t.remaining.Store(int32(t.n - 1))
	t.epoch.Add(1)
	for w := 1; w < t.n; w++ {
		if t.parked[w].Load() != 0 {
			select {
			case t.wake[w] <- struct{}{}:
			default:
			}
		}
	}
	t.exec(0)
	if t.remaining.Load() != 0 {
		for i := 0; i < t.spin && t.remaining.Load() != 0; i++ {
		}
		for t.remaining.Load() != 0 {
			t.leaderParked.Store(1)
			if t.remaining.Load() == 0 {
				break
			}
			<-t.leaderWake
		}
		t.leaderParked.Store(0)
	}
	if t.obs != nil {
		min, max := t.workerUs[0], t.workerUs[0]
		for w := 1; w < t.n; w++ {
			if us := t.workerUs[w]; us < min {
				min = us
			} else if us > max {
				max = us
			}
		}
		t.obs.Observe(max - min)
	}
}

// exec runs worker w's share [split[w], split[w+1]) of the current kernel.
//
//vetsparse:allocfree
func (t *Team) exec(w int) {
	var t0 time.Time
	if t.obs != nil {
		//vetsparse:ignore determinism metrics-only imbalance timing; never feeds float results
		t0 = time.Now()
	}
	lo, hi := t.split[w], t.split[w+1]
	switch t.op {
	case opMulVec:
		t.m.mulVecRange(t.y, t.x, nil, nil, nil, nil, lo, hi)
	case opILUFwd:
		t.f.forwardRows(t.x, t.y, lo, hi)
	case opILUBwd:
		t.f.backwardRows(t.x, lo, hi)
	case opRun:
		t.runFn(lo, hi)
	case opPhase:
		t.ph.exec(lo, hi)
	}
	if t.obs != nil {
		//vetsparse:ignore determinism metrics-only imbalance timing; never feeds float results
		t.workerUs[w] = time.Since(t0).Microseconds()
	}
}

// splitEven partitions [0, n) into t.n contiguous worker ranges.
//
//vetsparse:allocfree
func (t *Team) splitEven(n int) { t.splitRange(0, n) }

// splitRange partitions [lo, hi) into t.n contiguous worker ranges.
//
//vetsparse:allocfree
func (t *Team) splitRange(lo, hi int) {
	n := hi - lo
	for w := 0; w <= t.n; w++ {
		t.split[w] = lo + w*n/t.n
	}
}

// splitChunkAligned partitions [0, n) into t.n contiguous ranges whose
// boundaries fall on redChunk multiples, distributing whole chunks evenly.
// With element ranges and reduction chunks coinciding, a fused phase's
// reduction reads exactly the elements the same worker's elementwise steps
// just wrote. Workers beyond the chunk count get empty ranges.
//
//vetsparse:allocfree
func (t *Team) splitChunkAligned(n int) {
	nch := (n + redChunk - 1) / redChunk
	for w := 0; w <= t.n; w++ {
		b := w * nch / t.n * redChunk
		if b > n {
			b = n
		}
		t.split[w] = b
	}
}

// RunPhase executes the fused micro-program p in one dispatch: a single
// wake/park cycle covers every step. A sequential team, or a phase below
// ParMinPhase, is the team of one: the caller runs the same interpreter
// over the whole range.
//
//vetsparse:allocfree
func (t *Team) RunPhase(p *Phase) {
	if t.seq() || p.n < ParMinPhase {
		p.exec(0, p.n)
		return
	}
	var t0 time.Time
	if t.pobs != nil {
		//vetsparse:ignore determinism metrics-only phase timing; never feeds float results
		t0 = time.Now()
	}
	t.ph = p
	t.op = opPhase
	t.splitChunkAligned(p.n)
	t.kick()
	t.ph = nil
	if t.pobs != nil {
		//vetsparse:ignore determinism metrics-only phase timing; never feeds float results
		t.pobs.Observe(time.Since(t0).Microseconds())
	}
}

// splitRowsByNNZ partitions m's rows into t.n contiguous ranges of roughly
// equal stored-entry counts (a plain even row split would starve workers on
// matrices whose nnz is concentrated in few rows).
//
//vetsparse:allocfree
func (t *Team) splitRowsByNNZ(m *CSR) {
	nnz := m.NNZ()
	t.split[0] = 0
	for w := 1; w < t.n; w++ {
		target := nnz * w / t.n
		lo, hi := t.split[w-1], m.Rows
		for lo < hi {
			mid := (lo + hi) / 2
			if m.RowPtr[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		t.split[w] = lo
	}
	t.split[t.n] = m.Rows
}

// Run splits [0, n) into contiguous worker ranges and calls fn(lo, hi) on
// each concurrently. fn must be safe to run from multiple goroutines on
// disjoint ranges. Intended for cold-path parallel loops (prolongation);
// the hot kernels have dedicated closure-free entry points.
//
//vetsparse:allocfree
func (t *Team) Run(n int, fn func(lo, hi int)) {
	if t.seq() || n < t.Size() {
		fn(0, n)
		return
	}
	t.runFn = fn
	t.op = opRun
	t.splitEven(n)
	t.kick()
	t.runFn = nil
}

// MulVec computes y = m*x, splitting rows across the team balanced by
// stored entries. Every y[r] is one row's serial dot product, so the result
// is exactly CSR.MulVec's.
//
//vetsparse:allocfree
func (t *Team) MulVec(m *CSR, y, x Vector, ops *Ops) {
	if t.seq() || m.Rows < ParMinPhase {
		m.MulVec(y, x, ops)
		return
	}
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("linalg: mulvec dims %dx%d with x[%d], y[%d]", m.Rows, m.Cols, len(x), len(y)))
	}
	t.m, t.y, t.x = m, y, x
	t.op = opMulVec
	t.splitRowsByNNZ(m)
	t.kick()
	ops.Add(2 * int64(m.NNZ()))
}

// dotChunks fills partial[c] with the dot of chunk c for every chunk that
// starts in [lo, hi); lo must be chunk-aligned. Each chunk starts a fresh
// accumulator, so the partials — and their ordered fold — do not depend on
// where a team cuts the range. Unrolled by four like the elementwise range
// kernels (phase.go), with the products still added one by one in index
// order.
//
//go:noinline
//vetsparse:allocfree
func dotChunks(partial []float64, a, b Vector, lo, hi int) {
	for ; lo < hi; lo += redChunk {
		end := lo + redChunk
		if end > hi {
			end = hi
		}
		x := a[lo:end]
		y := b[lo:end][:len(x)]
		p := 0.0
		i := 0
		for ; i+4 <= len(x); i += 4 {
			x, y := x[i:i+4:i+4], y[i:i+4:i+4]
			p += x[0] * y[0]
			p += x[1] * y[1]
			p += x[2] * y[2]
			p += x[3] * y[3]
		}
		for ; i < len(x); i++ {
			p += x[i] * y[i]
		}
		partial[lo/redChunk] = p
	}
}

// wrmsChunks fills partial[c] with the weighted squared-error sum of chunk
// c for every chunk that starts in [lo, hi); lo must be chunk-aligned.
//
//vetsparse:allocfree
func wrmsChunks(partial []float64, v, ref Vector, atol, rtol float64, lo, hi int) {
	for ; lo < hi; lo += redChunk {
		end := lo + redChunk
		if end > hi {
			end = hi
		}
		x := v[lo:end]
		r := ref[lo:end][:len(x)]
		p := 0.0
		for i, xv := range x {
			e := xv / (atol + rtol*math.Abs(r[i]))
			p += e * e
		}
		partial[lo/redChunk] = p
	}
}
