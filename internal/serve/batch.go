package serve

import (
	"errors"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/solver"
)

var (
	errBatcherClosed = errors.New("serve: batcher closed")
	errBatchDeadline = errors.New("serve: batched subsolve missed its deadline")
)

// subTask is one grid of one request's sparse-grid family on its way
// through the cross-request batcher. Its result channel is buffered to
// the family size, so a request that gives up (deadline) never blocks a
// batch worker delivering late results.
type subTask struct {
	sig      signature
	sigStr   string
	idx      int // position in the request's grid family
	tol      float64
	reqID    int64
	deadline time.Time
	enq      time.Time
	out      chan<- subResult
}

// subResult is the terminal state of one subTask.
type subResult struct {
	idx int
	res solver.Result
	err error
}

// pendingBatch accumulates same-signature tasks until a flush condition:
// size (the batch is full), age (the window expired), deadline (the
// earliest member's deadline minus the safety margin is due), or close
// (the batcher is shutting down).
type pendingBatch struct {
	sigStr   string
	tasks    []*subTask
	created  time.Time
	earliest time.Time // earliest member deadline; zero = none
	timer    *time.Timer
	gen      uint64 // guards the timer callback against a recycled key
}

// batcher groups same-shape subsolves from concurrent requests and runs
// them on a fixed set of workers, each owning one persistent linalg.Team.
// Amortization is the whole design: tasks of one batch share the worker's
// team (no per-request pool/team setup) and, through the solver cache,
// the discretization and factorization of their shape.
//
// Batches are routed by signature affinity — the same shape always lands
// on the same worker's deque, keeping its team and cache checkouts warm —
// and idle workers steal whole batches from their neighbors' deques, so
// a skewed signature mix cannot leave workers idle while one deque backs
// up. A token channel carries readiness: every dispatched batch sends one
// token, every token wakes one worker for one batch (own deque first,
// then the others in index rotation, again until it has one).
type batcher struct {
	window  time.Duration
	maxSize int
	margin  time.Duration
	teamN   int
	tEnd    float64
	now     func() time.Time

	rec   *obs.Recorder
	cache *solverCache

	mu      sync.Mutex
	pending map[signature]*pendingBatch
	gen     uint64
	closed  bool

	deques []*core.Deque[[]*subTask]
	tokens chan struct{}
	quit   chan struct{}
	wg     sync.WaitGroup

	cTasks, cFlushes, cSteals *obs.Counter
	hSize, hWait              *obs.Histogram
}

func newBatcher(cfg Config, rec *obs.Recorder, cache *solverCache, now func() time.Time) *batcher {
	workers := cfg.BatchWorkers
	if workers < 1 {
		workers = 1
	}
	b := &batcher{
		window:  cfg.BatchWindow,
		maxSize: cfg.BatchSize,
		margin:  cfg.BatchMargin,
		teamN:   cfg.BatchTeam,
		tEnd:    solver.DefaultTEnd,
		now:     now,
		rec:     rec,
		cache:   cache,
		pending: make(map[signature]*pendingBatch),
		deques:  make([]*core.Deque[[]*subTask], workers),
		tokens:  make(chan struct{}, cfg.QueueDepth),
		quit:    make(chan struct{}),

		cTasks:   rec.Counter("serve.batch.tasks"),
		cFlushes: rec.Counter("serve.batch.flushes"),
		cSteals:  rec.Counter("serve.batch.steals"),
		hSize:    rec.Histogram("serve.batch.size"),
		hWait:    rec.Histogram("serve.batch.wait.us"),
	}
	for i := range b.deques {
		b.deques[i] = core.NewDeque[[]*subTask](cfg.QueueDepth)
	}
	return b
}

func (b *batcher) start() {
	for i := range b.deques {
		b.wg.Add(1)
		go b.worker(i)
	}
}

// home is the affinity route of a signature: an FNV-1a hash over the
// signature string picks the worker whose deque, team, and cache
// checkouts stay warm for that shape.
func (b *batcher) home(sigStr string) int {
	h := uint32(2166136261)
	for i := 0; i < len(sigStr); i++ {
		h ^= uint32(sigStr[i])
		h *= 16777619
	}
	return int(h % uint32(len(b.deques)))
}

// enqueue adds a task to its signature's pending batch, flushing on size
// immediately and otherwise (re)arming the age/deadline timer.
func (b *batcher) enqueue(t *subTask) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errBatcherClosed
	}
	t.enq = b.now()
	pb := b.pending[t.sig]
	if pb == nil {
		b.gen++
		pb = &pendingBatch{sigStr: t.sigStr, created: t.enq, gen: b.gen}
		b.pending[t.sig] = pb
	}
	pb.tasks = append(pb.tasks, t)
	if !t.deadline.IsZero() && (pb.earliest.IsZero() || t.deadline.Before(pb.earliest)) {
		pb.earliest = t.deadline
	}
	b.cTasks.Inc()
	b.rec.Emit(obs.KBatchTask, t.sigStr, "", t.reqID, int64(len(pb.tasks)))
	if len(pb.tasks) >= b.maxSize {
		b.detachLocked(t.sig, pb)
		b.mu.Unlock()
		b.dispatch(pb, "size")
		return nil
	}
	b.retimeLocked(t.sig, pb)
	b.mu.Unlock()
	return nil
}

// retimeLocked arms or resets the batch's flush timer: created+window,
// capped by the earliest member deadline minus the safety margin, so a
// batch always dispatches with enough runway to finish in time.
func (b *batcher) retimeLocked(sig signature, pb *pendingBatch) {
	fire := pb.created.Add(b.window)
	if !pb.earliest.IsZero() {
		if byDeadline := pb.earliest.Add(-b.margin); byDeadline.Before(fire) {
			fire = byDeadline
		}
	}
	d := fire.Sub(b.now())
	if d < 0 {
		d = 0
	}
	if pb.timer == nil {
		gen := pb.gen
		pb.timer = time.AfterFunc(d, func() { b.flushExpired(sig, gen) })
	} else {
		pb.timer.Reset(d)
	}
}

// flushExpired is the timer callback. The generation check makes a stale
// callback — one racing a size flush that already recycled the key — a
// no-op.
func (b *batcher) flushExpired(sig signature, gen uint64) {
	b.mu.Lock()
	pb := b.pending[sig]
	if pb == nil || pb.gen != gen {
		b.mu.Unlock()
		return
	}
	b.detachLocked(sig, pb)
	b.mu.Unlock()
	reason := "age"
	if !pb.earliest.IsZero() && !b.now().Before(pb.earliest.Add(-b.margin)) {
		reason = "deadline"
	}
	b.dispatch(pb, reason)
}

func (b *batcher) detachLocked(sig signature, pb *pendingBatch) {
	delete(b.pending, sig)
	if pb.timer != nil {
		pb.timer.Stop()
	}
}

// dispatch hands a detached batch to the workers: one flush event, one
// counter increment, one size observation per batch. The batch lands on
// its signature's affinity deque, then one readiness token wakes a
// worker; the push precedes the token send, so any worker woken by the
// token is guaranteed to find a batch somewhere in its sweep.
func (b *batcher) dispatch(pb *pendingBatch, reason string) {
	b.cFlushes.Inc()
	b.hSize.Observe(int64(len(pb.tasks)))
	b.rec.Emit(obs.KBatchFlush, pb.sigStr, reason, int64(len(pb.tasks)), b.now().Sub(pb.created).Microseconds())
	home := b.home(pb.sigStr)
	b.deques[home].Push(pb.tasks)
	select {
	case b.tokens <- struct{}{}:
	case <-b.quit:
		// Shutdown won the race: no token was issued for the pushed
		// batch, so fail whatever the home deque still holds (a live
		// worker that steals first simply fails or finishes the batch
		// itself — deque consumption is exclusive either way).
		for {
			tasks, ok := b.deques[home].Steal()
			if !ok {
				return
			}
			for _, t := range tasks {
				t.out <- subResult{idx: t.idx, err: errBatcherClosed}
			}
		}
	}
}

// take gives worker i, which holds a token, one batch: its own deque first
// (affinity), then a steal sweep over the neighbors in index rotation. The
// sweep is not atomic — a batch can land on a deque it has passed while
// another worker pops the one it was heading for — so a miss means "look
// again", never "nothing there": dispatch pushes before it sends the
// token, so queued batches always number at least the tokens held, and a
// worker that gave its token up would leave one batch with nobody to wake
// for it. Only a closed quit (whose drain fails the queued batches) ends
// the search empty-handed.
func (b *batcher) take(i int) ([]*subTask, int, bool) {
	n := len(b.deques)
	for {
		if tasks, ok := b.deques[i].Pop(); ok {
			return tasks, i, true
		}
		for k := 1; k < n; k++ {
			v := (i + k) % n
			if tasks, ok := b.deques[v].Steal(); ok {
				return tasks, v, true
			}
		}
		select {
		case <-b.quit:
			return nil, 0, false
		default:
			runtime.Gosched()
		}
	}
}

// worker owns one persistent team for its whole life and runs batches in
// arrival order — its own signature-affine batches first, stolen ones
// when its deque runs dry. On quit it fails whatever is still queued so
// no request is left waiting on a dead batcher.
func (b *batcher) worker(i int) {
	defer b.wg.Done()
	team := linalg.NewTeam(b.teamN)
	defer team.Close()
	actor := "batch-" + strconv.Itoa(i)
	for {
		select {
		case <-b.quit:
			for _, dq := range b.deques {
				for {
					tasks, ok := dq.Steal()
					if !ok {
						break
					}
					for _, t := range tasks {
						t.out <- subResult{idx: t.idx, err: errBatcherClosed}
					}
				}
			}
			return
		case <-b.tokens:
			tasks, victim, ok := b.take(i)
			if !ok {
				continue // quit closed under the sweep: drain on the next turn
			}
			if victim != i {
				b.cSteals.Inc()
				b.rec.Emit(obs.KSteal, actor, "batch-"+strconv.Itoa(victim), int64(len(tasks)), 0)
			}
			for _, t := range tasks {
				b.runTask(actor, team, t)
			}
		}
	}
}

// runTask solves one batched subsolve on the worker's persistent team,
// through the signature-keyed cache. The checked-out entry is exclusive,
// so wiring the worker's team in and out of its workspace is safe.
func (b *batcher) runTask(actor string, team *linalg.Team, t *subTask) {
	b.hWait.Observe(b.now().Sub(t.enq).Microseconds())
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
	b.cache.put(e)
	t.out <- subResult{idx: t.idx, res: res, err: err}
}

// close stops the batcher: pending batches flush with reason "close" and
// their tasks fail with errBatcherClosed, then the workers are signalled.
// When wait is true close joins them — only a clean drain does, a timed-
// out one must not block on a worker mid-solve.
func (b *batcher) close(wait bool) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
	} else {
		b.closed = true
		pending := b.pending
		b.pending = make(map[signature]*pendingBatch)
		b.mu.Unlock()
		for _, pb := range pending {
			if pb.timer != nil {
				pb.timer.Stop()
			}
			b.cFlushes.Inc()
			b.hSize.Observe(int64(len(pb.tasks)))
			b.rec.Emit(obs.KBatchFlush, pb.sigStr, "close", int64(len(pb.tasks)), b.now().Sub(pb.created).Microseconds())
			for _, t := range pb.tasks {
				t.out <- subResult{idx: t.idx, err: errBatcherClosed}
			}
		}
		close(b.quit)
	}
	if wait {
		b.wg.Wait()
	}
}

// solveBatched fans one request's grid family into the batcher and
// recombines the results; it replaces solver.Concurrent on the batched
// path. Combination runs on the executor's goroutine with a single-core
// team — it is cheap relative to the subsolves and keeps the executor's
// cost model honest.
func (s *Server) solveBatched(j *job, p solver.Params) (*solver.Output, error) {
	fam := grid.Family(p.Root, p.Level)
	out := make(chan subResult, len(fam))
	for i, g := range fam {
		sig := signature{g: g, lin: j.lin}
		t := &subTask{
			sig: sig, sigStr: sig.String(), idx: i, tol: p.Tol,
			reqID: j.id, deadline: j.deadline, out: out,
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
