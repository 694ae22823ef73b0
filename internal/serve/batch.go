package serve

import (
	"errors"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/solver"
)

var (
	errBatcherClosed  = errors.New("serve: batcher closed")
	errBatchDeadline  = errors.New("serve: batched subsolve missed its deadline")
	errBatchAbandoned = errors.New("serve: batched subsolve abandoned by its request")
)

// subTask is one grid of one request's sparse-grid family on its way
// through the cross-request batcher. Its result channel is buffered to
// the family size, so a request that gives up (deadline) never blocks a
// batch worker delivering late results.
type subTask struct {
	sig       signature
	sigStr    string
	idx       int // position in the request's grid family
	tol       float64
	reqID     int64
	deadline  time.Time
	abandoned *atomic.Bool // shared by the family: its request has returned
	enq       time.Time
	out       chan<- subResult
}

// subResult is the terminal state of one subTask.
type subResult struct {
	idx int
	res solver.Result
	err error
}

// pendingBatch is a group of same-signature tasks waiting for a worker. It
// takes new members until it is sealed, and the seal's reason is the
// batch's flush reason: size (it is full), age (an enqueue found it older
// than the window), idle (a worker took it while it was still open) or
// close (the batcher shut down with it pending).
type pendingBatch struct {
	sig     signature
	sigStr  string
	tasks   []*subTask
	created time.Time
	reason  string // "" while open
}

// batcher groups same-shape subsolves from concurrent requests and runs
// them on a fixed set of workers, each owning one persistent linalg.Team.
// Amortization is the whole design: tasks of one batch share the worker's
// team (no per-request pool/team setup) and, through the solver cache,
// the discretization and factorization of their shape.
//
// It is a pull model, group commit: a worker with nothing to do takes the
// oldest pending batch at once, so a task waits — and its batch grows —
// only while every worker is busy, time it would have waited anyway. No
// timer is involved; the window only stops an old batch from taking
// further members. A worker prefers the oldest batch whose signature no
// other worker is solving (that shape's cache entry is checked out, a
// second concurrent solve would assemble it again) and otherwise takes
// the plain oldest, so no worker idles while a batch is pending.
type batcher struct {
	window  time.Duration
	maxSize int
	workers int
	teamN   int
	tEnd    float64
	now     func() time.Time

	rec   *obs.Recorder
	cache *solverCache

	mu      sync.Mutex
	idle    *sync.Cond                  // workers wait here for a batch; guarded by mu
	queue   []*pendingBatch             // pending batches, oldest first
	open    map[signature]*pendingBatch // the queued batch of a signature still taking members
	solving map[signature]int           // workers currently running a batch of the signature
	closed  bool
	wg      sync.WaitGroup

	cTasks, cFlushes *obs.Counter
	hSize, hWait     *obs.Histogram
}

func newBatcher(cfg Config, rec *obs.Recorder, cache *solverCache, now func() time.Time) *batcher {
	b := &batcher{
		window:  cfg.BatchWindow,
		maxSize: cfg.BatchSize,
		workers: cfg.BatchWorkers,
		teamN:   cfg.BatchTeam,
		tEnd:    solver.DefaultTEnd,
		now:     now,
		rec:     rec,
		cache:   cache,
		open:    make(map[signature]*pendingBatch),
		solving: make(map[signature]int),

		cTasks:   rec.Counter("serve.batch.tasks"),
		cFlushes: rec.Counter("serve.batch.flushes"),
		hSize:    rec.Histogram("serve.batch.size"),
		hWait:    rec.Histogram("serve.batch.wait.us"),
	}
	b.idle = sync.NewCond(&b.mu)
	return b
}

func (b *batcher) start() {
	for i := 0; i < b.workers; i++ {
		b.wg.Add(1)
		go b.worker(i)
	}
}

// enqueue adds a task to its signature's open batch, opening one (and
// waking an idle worker for it) when there is none to join: none pending,
// the pending one full, or older than the window.
func (b *batcher) enqueue(t *subTask) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return errBatcherClosed
	}
	t.enq = b.now()
	pb := b.open[t.sig]
	if pb != nil && t.enq.Sub(pb.created) >= b.window {
		b.sealLocked(pb, "age")
		pb = nil
	}
	if pb == nil {
		pb = &pendingBatch{sig: t.sig, sigStr: t.sigStr, created: t.enq}
		b.open[t.sig] = pb
		b.queue = append(b.queue, pb)
		b.idle.Signal()
	}
	pb.tasks = append(pb.tasks, t)
	b.cTasks.Inc()
	b.rec.Emit(obs.KBatchTask, t.sigStr, "", t.reqID, int64(len(pb.tasks)))
	if len(pb.tasks) >= b.maxSize {
		b.sealLocked(pb, "size")
	}
	return nil
}

// sealLocked stops an open batch from taking further members.
func (b *batcher) sealLocked(pb *pendingBatch, reason string) {
	pb.reason = reason
	delete(b.open, pb.sig)
}

// take blocks until a batch is pending and removes it from the queue: the
// oldest whose signature no worker is solving, else the oldest. It returns
// nil once the batcher is closed (close fails what was still queued).
func (b *batcher) take() *pendingBatch {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.queue) == 0 && !b.closed {
		b.idle.Wait()
	}
	if b.closed {
		return nil
	}
	i := max(0, slices.IndexFunc(b.queue, func(pb *pendingBatch) bool { return b.solving[pb.sig] == 0 }))
	pb := b.queue[i]
	b.queue = slices.Delete(b.queue, i, i+1)
	if pb.reason == "" {
		b.sealLocked(pb, "idle")
	}
	b.solving[pb.sig]++
	return pb
}

// release ends a worker's claim on the signature of a batch it has run.
func (b *batcher) release(sig signature) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.solving[sig]--; b.solving[sig] == 0 {
		delete(b.solving, sig)
	}
}

// flushed accounts a batch leaving the queue: one flush event, one counter
// increment, one size observation per batch.
func (b *batcher) flushed(pb *pendingBatch) {
	b.cFlushes.Inc()
	b.hSize.Observe(int64(len(pb.tasks)))
	b.rec.Emit(obs.KBatchFlush, pb.sigStr, pb.reason, int64(len(pb.tasks)), b.now().Sub(pb.created).Microseconds())
}

// worker owns one persistent team for its whole life and runs one batch
// after another, its tasks back to back, until the batcher closes.
func (b *batcher) worker(i int) {
	defer b.wg.Done()
	team := linalg.NewTeam(b.teamN)
	defer team.Close()
	actor := "batch-" + strconv.Itoa(i)
	for pb := b.take(); pb != nil; pb = b.take() {
		b.flushed(pb)
		for _, t := range pb.tasks {
			b.runTask(actor, team, t)
		}
		b.release(pb.sig)
	}
}

// runTask solves one batched subsolve on the worker's persistent team,
// through the signature-keyed cache. The checked-out entry is exclusive,
// so wiring the worker's team in and out of its workspace is safe; it goes
// back to the cache only after a solve that succeeded. A task whose request
// has already given up — its deadline passed, or the family was abandoned —
// is answered without being solved.
func (b *batcher) runTask(actor string, team *linalg.Team, t *subTask) {
	b.hWait.Observe(b.now().Sub(t.enq).Microseconds())
	if t.abandoned.Load() {
		t.out <- subResult{idx: t.idx, err: errBatchAbandoned}
		return
	}
	if !t.deadline.IsZero() && b.now().After(t.deadline) {
		t.out <- subResult{idx: t.idx, err: errBatchDeadline}
		return
	}
	e := b.cache.take(t.sig, t.sigStr)
	if e == nil {
		e = b.cache.build(t.sig, t.sigStr)
	}
	e.ws.SetTeam(team)
	res, err := solver.TimedSubsolveOn(b.rec, actor, e.disc, t.tol, b.tEnd, t.sig.lin, e.ws, b.teamN)
	e.ws.SetTeam(nil)
	if err != nil {
		b.cache.drop(e)
	} else {
		b.cache.put(e)
	}
	t.out <- subResult{idx: t.idx, res: res, err: err}
}

// close stops the batcher: batches still pending flush with reason "close"
// and their tasks fail with errBatcherClosed, and the workers return after
// the batch they are running. When wait is true close joins them — only a
// clean drain does, a timed-out one must not block on a worker mid-solve.
func (b *batcher) close(wait bool) {
	b.mu.Lock()
	b.closed = true
	pending := b.queue
	b.queue = nil
	b.idle.Broadcast()
	b.mu.Unlock()
	for _, pb := range pending {
		pb.reason = "close"
		b.flushed(pb)
		for _, t := range pb.tasks {
			t.out <- subResult{idx: t.idx, err: errBatcherClosed}
		}
	}
	if wait {
		b.wg.Wait()
	}
}

// solveBatched fans one request's grid family into the batcher and
// recombines the results; it replaces solver.Concurrent on the batched
// path. Combination runs on the executor's goroutine with a single-core
// team — it is cheap relative to the subsolves and keeps the executor's
// cost model honest. However it returns, the family is abandoned: tasks
// of a failed or timed-out request still queued are skipped, not solved.
func (s *Server) solveBatched(j *job, p solver.Params) (*solver.Output, error) {
	fam := grid.Family(p.Root, p.Level)
	out := make(chan subResult, len(fam))
	abandoned := new(atomic.Bool)
	// A closure on purpose: `defer abandoned.Store(true)` links an out-of-line
	// atomic.Bool.Store ahead of linalg and moves its hot loops by 32 bytes
	// (EXPERIMENTS.md, "Group-commit batching").
	defer func() { abandoned.Store(true) }()
	for i, g := range fam {
		sig := signature{g: g, lin: j.lin}
		t := &subTask{
			sig: sig, sigStr: sig.String(), idx: i, tol: p.Tol,
			reqID: j.id, deadline: j.deadline, abandoned: abandoned, out: out,
		}
		if err := s.batch.enqueue(t); err != nil {
			return nil, err
		}
	}
	remaining := j.deadline.Sub(s.now())
	if remaining <= 0 {
		return nil, errBatchDeadline
	}
	tm := time.NewTimer(remaining)
	defer tm.Stop()
	results := make([]solver.Result, len(fam))
	for n := 0; n < len(fam); n++ {
		select {
		case r := <-out:
			if r.err != nil {
				return nil, r.err
			}
			results[r.idx] = r.res
		case <-tm.C:
			return nil, errBatchDeadline
		}
	}
	p.CoresPerWorker = 1
	return solver.Combine(p, results)
}
