package serve

import (
	"errors"
	"fmt"
	"slices"
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
// through the cross-request batcher. The first task to ask a question —
// a (signature, tol) — leads its flight: it joins a batch and is solved.
// One that asks while the leader is pending or being solved rides: it is
// listed in the leader's riders and answered with the leader's result. The
// result channel is buffered to the family size, so a request that gives up
// (deadline) never blocks an executor delivering late results.
type subTask struct {
	sig       signature
	idx       int // position in the request's grid family
	tol       float64
	reqID     int64
	deadline  time.Time
	abandoned *atomic.Bool // shared by the family: its request has returned
	enq       time.Time
	out       chan<- subResult
	riders    []*subTask // of a leader; batcher.mu guards it while the flight is listed
}

// flightKey is what makes two subsolves the same question, to the bit of the
// tolerance (Validate admits only finite positive ones, so == compares
// bits). It is the cache key plus everything else a request can vary: tEnd
// and the problem are constants of the server, and join the key the day they
// become per-request.
type flightKey struct {
	sig signature
	tol float64
}

func (t *subTask) key() flightKey { return flightKey{t.sig, t.tol} }

// gaveUp reports why nobody waits for t any more — its request returned, or
// its deadline had passed at the given time — or nil while somebody does.
func (t *subTask) gaveUp(at time.Time) error {
	if t.abandoned.Load() {
		return errBatchAbandoned
	}
	if !t.deadline.IsZero() && at.After(t.deadline) {
		return errBatchDeadline
	}
	return nil
}

// subResult is the terminal state of one subTask.
type subResult struct {
	idx int
	res solver.Result
	err error
}

// pendingBatch is a group of same-signature tasks waiting for an executor.
// It takes new members until it is sealed, and the seal's reason is the
// batch's flush reason: size (it is full), age (an enqueue found it older
// than the window), idle (an executor took it while it was still open) or
// close (the batcher shut down with it pending).
type pendingBatch struct {
	sig     signature
	sigStr  string
	tasks   []*subTask
	created time.Time
	reason  string // "" while open
}

// batcher groups same-shape subsolves from concurrent requests. It starts
// no goroutine: the server's executors run the batches, each on the
// persistent linalg.Team it owns — one with no job, or whose own request
// waits for results, takes whatever is pending, any request's. Tasks of one
// batch share that team (no per-request pool/team setup) and, through the
// solver cache, the discretization and factorization of their shape.
//
// It is a pull model, group commit: a free executor takes the oldest
// pending batch at once, so a task waits — and its batch grows — only
// while every executor is busy. No timer is involved; the window only
// stops an old batch from taking further members. An executor prefers the
// oldest batch whose signature no other is solving (its cache entry is
// checked out, a second concurrent solve would assemble the shape again),
// else takes the plain oldest, so none sleeps while a batch is pending.
//
// A subsolve reads and writes data only of its own grid, so its result is a
// function of its flightKey alone, and the batcher computes it once per
// question: flights lists the leader of every key pending or being solved,
// enqueue hands a task that finds its key there to that leader, and runTask
// answers leader and riders from one Integrate. Only leaders are batch
// members; both kinds count in serve.batch.tasks.
type batcher struct {
	window  time.Duration
	maxSize int
	now     func() time.Time

	rec   *obs.Recorder
	cache *solverCache

	// wake holds at most one token: a batch is pending. Whoever receives it
	// calls take, which leaves it again while more are pending.
	wake chan struct{}

	mu      sync.Mutex
	queue   []*pendingBatch             // pending batches, oldest first
	open    map[signature]*pendingBatch // the queued batch of a signature still taking members
	solving map[signature]int           // executors currently running a batch of the signature
	flights map[flightKey]*subTask      // the leader of each question pending or being solved
	names   map[signature]string        // each signature's event actor, rendered once
	closed  bool

	cTasks, cFlushes, cCoalesced *obs.Counter
	hSize, hWait                 *obs.Histogram
}

func newBatcher(cfg Config, rec *obs.Recorder, cache *solverCache, now func() time.Time) *batcher {
	return &batcher{
		window:  cfg.BatchWindow,
		maxSize: cfg.BatchSize,
		now:     now,
		rec:     rec,
		cache:   cache,
		wake:    make(chan struct{}, 1),
		open:    make(map[signature]*pendingBatch),
		solving: make(map[signature]int),
		flights: make(map[flightKey]*subTask),
		names:   make(map[signature]string),

		cTasks:     rec.Counter("serve.batch.tasks"),
		cFlushes:   rec.Counter("serve.batch.flushes"),
		cCoalesced: rec.Counter("serve.batch.coalesced"),
		hSize:      rec.Histogram("serve.batch.size"),
		hWait:      rec.Histogram("serve.batch.wait.us"),
	}
}

// signal leaves the wake-up token unless one is already there.
func (b *batcher) signal() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// enqueue hands a task to the flight of its question when one is listed: no
// batch entry, no cache checkout, no second Integrate. Otherwise the task
// leads a new flight and joins its signature's open batch, opening one (and
// waking a sleeping executor for it) when there is none to join: none
// pending, the pending one full, or older than the window.
func (b *batcher) enqueue(t *subTask) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errBatcherClosed
	}
	t.enq = b.now()
	b.cTasks.Inc()
	if lead := b.flights[t.key()]; lead != nil {
		lead.riders = append(lead.riders, t)
		b.cCoalesced.Inc()
		b.rec.Emit(obs.KBatchCoalesce, b.names[t.sig], "", t.reqID, lead.reqID)
		b.mu.Unlock()
		return nil
	}
	b.flights[t.key()] = t
	pb := b.open[t.sig]
	if pb != nil && t.enq.Sub(pb.created) >= b.window {
		b.sealLocked(pb, "age")
		pb = nil
	}
	opened := pb == nil
	if opened {
		if b.names[t.sig] == "" {
			b.names[t.sig] = t.sig.String()
		}
		pb = &pendingBatch{sig: t.sig, sigStr: b.names[t.sig], created: t.enq}
		b.open[t.sig] = pb
		b.queue = append(b.queue, pb)
	}
	pb.tasks = append(pb.tasks, t)
	b.rec.Emit(obs.KBatchTask, pb.sigStr, "", t.reqID, int64(len(pb.tasks)))
	if len(pb.tasks) >= b.maxSize {
		b.sealLocked(pb, "size")
	}
	b.mu.Unlock()
	if opened {
		b.signal()
	}
	return nil
}

// sealLocked stops an open batch from taking further members.
func (b *batcher) sealLocked(pb *pendingBatch, reason string) {
	pb.reason = reason
	delete(b.open, pb.sig)
}

// take removes a pending batch from the queue for the caller to run: the
// oldest whose signature nobody is solving, else the oldest, nil when none
// is pending. It never blocks, and passes the wake-up on while more are.
func (b *batcher) take() *pendingBatch {
	b.mu.Lock()
	var pb *pendingBatch
	if len(b.queue) > 0 {
		i := max(0, slices.IndexFunc(b.queue, func(pb *pendingBatch) bool { return b.solving[pb.sig] == 0 }))
		pb = b.queue[i]
		b.queue = slices.Delete(b.queue, i, i+1)
		if pb.reason == "" {
			b.sealLocked(pb, "idle")
		}
		b.solving[pb.sig]++
	}
	more := len(b.queue) > 0
	b.mu.Unlock()
	if more {
		b.signal()
	}
	return pb
}

// flushed accounts a batch leaving the queue: one event, one count, one size.
func (b *batcher) flushed(pb *pendingBatch) {
	b.cFlushes.Inc()
	b.hSize.Observe(int64(len(pb.tasks)))
	b.rec.Emit(obs.KBatchFlush, pb.sigStr, pb.reason, int64(len(pb.tasks)), b.now().Sub(pb.created).Microseconds())
}

// help takes one pending batch, any request's, and runs it on the caller.
func (b *batcher) help(actor string, team *linalg.Team) {
	if pb := b.take(); pb != nil {
		b.flushed(pb)
		for _, t := range pb.tasks {
			b.runTask(actor, team, pb, t)
		}
		b.mu.Lock()
		if b.solving[pb.sig]--; b.solving[pb.sig] == 0 {
			delete(b.solving, pb.sig) // else take probes one dead key per signature ever seen
		}
		b.mu.Unlock()
	}
}

// runTask solves the flight t leads on the executor's team, through the
// signature-keyed cache, and answers every member. The checked-out entry is
// exclusive, so wiring the team in and out of its workspace is safe; only a
// solve that succeeded parks it again. A flight is skipped, unsolved, only
// when every member has given up: an abandoned leader must not cancel a live
// rider. A panic is the flight's error, not a crash.
func (b *batcher) runTask(actor string, team *linalg.Team, pb *pendingBatch, t *subTask) {
	start := b.now()
	b.hWait.Observe(start.Sub(t.enq).Microseconds())
	b.mu.Lock()
	live := t.gaveUp(start) == nil
	for _, m := range t.riders {
		live = live || m.gaveUp(start) == nil
	}
	if !live {
		delete(b.flights, t.key()) // under the lock that found nobody live: no live rider slips in between
	}
	b.mu.Unlock()
	if !live {
		b.answer(t, start, subResult{})
		return
	}
	e := b.cache.take(pb.sig, pb.sigStr)
	if e == nil {
		e = b.cache.build(pb.sig, pb.sigStr)
	}
	var r subResult
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("serve: batched subsolve of %s panicked: %v", pb.sigStr, p)
		}
		e.ws.SetTeam(nil)
		if r.err != nil {
			b.cache.drop(e)
		} else {
			b.cache.put(e)
		}
		b.mu.Lock()
		delete(b.flights, t.key())
		b.mu.Unlock()
		b.answer(t, start, r)
	}()
	e.ws.SetTeam(team)
	r.res, r.err = solver.TimedSubsolveOn(b.rec, actor, e.disc, t.tol, solver.DefaultTEnd, pb.sig.lin, e.ws, team.Size())
}

// answer sends the one result (or error) of the flight t led to t and every
// rider, each under its own idx; a member that had given up by start, when
// the flight was taken, gets its own reason instead. The caller has taken the
// flight off the list under b.mu: the next task with its key leads a flight
// of its own, and t.riders, which only a listed flight grows, is final. The
// members share res.U read-only: solver.Combine copies it
// (pde.FieldFromInterior) and nothing in serve writes Output.Results. The
// sends are outside b.mu and cannot block — every task's channel has room
// for its whole family.
func (b *batcher) answer(t *subTask, start time.Time, r subResult) {
	send := func(m *subTask) {
		if err := m.gaveUp(start); err != nil {
			m.out <- subResult{idx: m.idx, err: err}
			return
		}
		m.out <- subResult{idx: m.idx, res: r.res, err: r.err}
	}
	send(t)
	now := b.now()
	for _, m := range t.riders {
		b.hWait.Observe(now.Sub(m.enq).Microseconds())
		send(m)
	}
}

// close stops the batcher: batches still pending flush with reason "close"
// and their tasks, riders included, fail with errBatcherClosed; those taken
// are run to the end.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	pending := b.queue
	b.queue = nil
	for _, pb := range pending {
		b.sealLocked(pb, "close") // whatever sealed it before: an idle batcher keeps no open batch
		for _, t := range pb.tasks {
			delete(b.flights, t.key())
		}
	}
	b.mu.Unlock()
	for _, pb := range pending {
		b.flushed(pb)
		for _, t := range pb.tasks {
			b.answer(t, time.Time{}, subResult{err: errBatcherClosed}) // the zero time: no deadline has passed
		}
	}
}

// solveBatched fans one request's grid family into the batcher, largest
// grid first — the pool has fewer executors than the family has grids, so
// the request waits for the family's makespan — runs pending batches on the
// request's executor until the family's results are in, and recombines them
// (single-core: cheap relative to the subsolves). A task that rides another
// request's flight leaves this executor nothing of its own to run, so it
// helps with whatever is pending: the pool stays work-conserving. The request
// times out on its own timer whoever leads its flights. However it returns,
// the family is abandoned: its tasks still queued are skipped, not solved,
// unless a live rider waits for them.
func (s *Server) solveBatched(actor string, team *linalg.Team, j *job, p solver.Params) (*solver.Output, error) {
	fam := grid.Family(p.Root, p.Level)
	out := make(chan subResult, len(fam))
	abandoned := new(atomic.Bool)
	// A closure on purpose: `defer abandoned.Store(true)` links an out-of-line
	// atomic.Bool.Store ahead of linalg and moves its hot loops by 32 bytes
	// (EXPERIMENTS.md, "Group-commit batching").
	defer func() { abandoned.Store(true) }()
	order, _ := solver.LargestFirst(fam, p.Tol)
	for _, i := range order {
		if err := s.batch.enqueue(&subTask{
			sig: signature{g: fam[i], lin: j.lin}, idx: i, tol: p.Tol,
			reqID: j.id, deadline: j.deadline, abandoned: abandoned, out: out,
		}); err != nil {
			return nil, err
		}
	}
	tm := time.NewTimer(j.deadline.Sub(s.now()))
	defer tm.Stop()
	results := make([]solver.Result, len(fam))
	for n := 0; n < len(fam); {
		// Collect what is ready, else sleep until a result, the deadline or a
		// pending batch to run. No timer is seen from inside a subsolve: the
		// deadline is answered when the batch being run returns.
		var r subResult
		select {
		case r = <-out:
		case <-tm.C:
			return nil, errBatchDeadline
		default:
			select {
			case r = <-out:
			case <-tm.C:
				return nil, errBatchDeadline
			case <-s.batch.wake:
				s.batch.help(actor, team) // a token received is a take owed
				continue
			}
		}
		if r.err != nil {
			return nil, r.err
		}
		results[r.idx] = r.res
		n++
	}
	p.CoresPerWorker = 1
	return solver.Combine(p, results)
}
