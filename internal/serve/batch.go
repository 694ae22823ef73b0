package serve

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
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
// a (signature, tol) — leads its flight: it is queued and solved. One that
// asks while the leader is pending or being solved rides: it is listed in
// the leader's riders and answered with the leader's result. The result
// channel is buffered to the family size, so a request that gives up
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

// batcher answers the subsolves of concurrent requests, each question once.
// It starts no goroutine: the server's executors run the queue — one with no
// job, or whose own request waits for results, takes whatever is pending,
// any request's — through the solver cache, on the warm discretization and
// factorization of the shape.
//
// A subsolve reads and writes data only of its own grid, so its result is a
// function of its flightKey alone: flights lists the leader of every key
// pending or being solved, enqueue hands a task that finds its key there to
// that leader, and runTask answers leader and riders from one Integrate.
// Only leaders are queued; both kinds count in serve.batch.tasks.
//
// The queue is first in, first out, and a pull model: a free executor takes
// the oldest flight at once, so a task waits only while every executor is
// busy, and no timer is involved.
type batcher struct {
	now    func() time.Time
	rec    *obs.Recorder
	cache  *solverCache
	faults *core.FaultInjector // nil: none drawn

	// wake holds at most one token: a flight is queued. Whoever receives it
	// calls take, which leaves it again while more are.
	wake chan struct{}

	mu      sync.Mutex
	queue   []*subTask             // leaders waiting for an executor, oldest first
	flights map[flightKey]*subTask // the leader of each question pending or being solved
	names   map[signature]string   // each signature's event actor, rendered once
	closed  bool

	cTasks, cCoalesced *obs.Counter
	hWait              *obs.Histogram
}

func newBatcher(rec *obs.Recorder, cache *solverCache, faults *core.FaultInjector, now func() time.Time) *batcher {
	return &batcher{
		now:     now,
		rec:     rec,
		cache:   cache,
		faults:  faults,
		wake:    make(chan struct{}, 1),
		flights: make(map[flightKey]*subTask),
		names:   make(map[signature]string),

		cTasks:     rec.Counter("serve.batch.tasks"),
		cCoalesced: rec.Counter("serve.batch.coalesced"),
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
// queue entry, no cache checkout, no second Integrate. Otherwise the task
// leads a new flight, joins the queue and leaves the wake-up token.
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
	if b.names[t.sig] == "" {
		b.names[t.sig] = t.sig.String()
	}
	b.queue = append(b.queue, t)
	b.rec.Emit(obs.KBatchTask, b.names[t.sig], "", t.reqID, int64(len(b.queue)))
	b.mu.Unlock()
	b.signal()
	return nil
}

// take removes the oldest flight from the queue for the caller to run, nil
// when none is queued. It never blocks, and passes the wake-up on while more
// are.
func (b *batcher) take() *subTask {
	b.mu.Lock()
	var t *subTask
	if len(b.queue) > 0 {
		t = b.queue[0]
		b.queue = slices.Delete(b.queue, 0, 1)
	}
	more := len(b.queue) > 0
	b.mu.Unlock()
	if more {
		b.signal()
	}
	return t
}

// help takes one queued flight, any request's, and runs it on the caller.
func (b *batcher) help(actor string) {
	if t := b.take(); t != nil {
		b.runTask(actor, t)
	}
}

// runTask solves the flight t leads on the caller, through the
// signature-keyed cache, and answers every member. The checked-out entry is
// exclusive; only a solve that succeeded parks it again. A flight is
// skipped, unsolved, only when every member has given up: an abandoned
// leader must not cancel a live rider. A panic is the flight's error, not a
// crash.
//
// A flight that runs draws one fault from b.faults, after the checkout, so an
// injected fault fails the flight the way a real one does: a panic through
// the same recover, corruption as the rejected result, both dropping the
// entry; a hang stalls the executor for HangFor and then solves — a slow
// node, since an executor cannot abandon the subsolve it runs.
func (b *batcher) runTask(actor string, t *subTask) {
	start := b.now()
	b.hWait.Observe(start.Sub(t.enq).Microseconds())
	b.mu.Lock()
	name := b.names[t.sig]
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
	e := b.cache.take(t.sig, name)
	if e == nil {
		e = b.cache.build(t.sig, name)
	}
	var r subResult
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("serve: batched subsolve of %s panicked: %v", name, p)
		}
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
	switch k := b.faults.Draw(); k {
	case core.FaultPanic, core.FaultPanicPreRead:
		panic(core.InjectedFault{Kind: k})
	case core.FaultHang:
		time.Sleep(b.faults.HangFor())
	case core.FaultCorrupt:
		r.err = core.InjectedFault{Kind: k}
		return
	}
	r.res, r.err = solver.TimedSubsolveOn(b.rec, actor, e.disc, t.tol, solver.DefaultTEnd, t.sig.lin, e.ws)
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

// close stops the batcher: flights still queued fail, riders included, with
// errBatcherClosed; those taken are run to the end.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	pending := b.queue
	b.queue = nil
	for _, t := range pending {
		delete(b.flights, t.key())
	}
	b.mu.Unlock()
	for _, t := range pending {
		b.answer(t, time.Time{}, subResult{err: errBatcherClosed}) // the zero time: no deadline has passed
	}
}

// family is one attempt's grid family: its tasks, largest grid first — the
// pool has fewer executors than the family has grids, so the request waits
// for the family's makespan — their result channel and the flag that abandons
// them all. Its fan-out runs once, by the admitting handler or by the
// executor that dequeues the job, whichever gets there first. results and
// landed, indexed by grid, hold every result of the request's attempts so
// far that has been read off out: a retry's family fans out only the grids
// that have not landed.
type family struct {
	tasks     []*subTask
	out       chan subResult
	abandoned atomic.Bool
	once      sync.Once
	err       error // of the fan-out; read after once

	results []solver.Result
	landed  []bool
}

// newFamily builds the family of the first attempt of j's request, of shape p.
func newFamily(j *job, p solver.Params) *family {
	grids := grid.Family(p.Root, p.Level)
	f := &family{out: make(chan subResult, len(grids)), results: make([]solver.Result, len(grids)), landed: make([]bool, len(grids))}
	order := solver.LargestFirst(grids, p.Tol)
	for _, i := range order {
		f.tasks = append(f.tasks, &subTask{
			sig: signature{g: grids[i], lin: j.lin}, idx: i, tol: p.Tol,
			reqID: j.id, deadline: j.deadline, abandoned: &f.abandoned, out: f.out,
		})
	}
	return f
}

// retry builds the family of the attempt after f's. It keeps every result
// that has landed — also those that came in after f's attempt failed, from
// flights other executors were running — and asks again, in f's order,
// only for the grids still missing. A subsolve's result is a function of
// its flightKey, so a kept result is the one the retry would compute. The
// new family holds its own copies of the results.
func (f *family) retry() *family {
	for late := true; late; {
		select {
		case r := <-f.out:
			if r.err == nil {
				f.results[r.idx], f.landed[r.idx] = r.res, true
			}
		default:
			late = false
		}
	}
	missing := 0
	for _, ok := range f.landed {
		if !ok {
			missing++
		}
	}
	next := &family{out: make(chan subResult, missing), results: slices.Clone(f.results), landed: slices.Clone(f.landed)}
	for _, t := range f.tasks {
		if !f.landed[t.idx] {
			next.tasks = append(next.tasks, &subTask{
				sig: t.sig, idx: t.idx, tol: t.tol,
				reqID: t.reqID, deadline: t.deadline, abandoned: &next.abandoned, out: next.out,
			})
		}
	}
	return next
}

// fanOut enqueues the family on its first call; every call reports the
// error that stopped it.
func (f *family) fanOut(b *batcher) error {
	f.once.Do(func() {
		for _, t := range f.tasks {
			if f.err = b.enqueue(t); f.err != nil {
				return
			}
		}
	})
	return f.err
}

// abandon sets the family's abandoned flag.
func (f *family) abandon() { f.abandoned.Store(true) }

// solveBatched fans one attempt's grid family f into the batcher unless
// admission did (a nil f is built here from j and p), runs queued flights on
// the request's executor until the family's results are in, and recombines
// them with those of earlier attempts (cheap relative to the subsolves). The
// results that land before a failure stay in f for the retry. A task that rides another
// request's flight leaves this executor nothing of its own to run, so it
// helps with whatever is pending: the pool stays work-conserving. The request
// times out on its own timer whoever leads its flights. However it returns,
// the family is abandoned: its tasks still queued are skipped, not solved,
// unless a live rider waits for them.
func (s *Server) solveBatched(actor string, j *job, f *family, p solver.Params) (*solver.Output, error) {
	if f == nil {
		f = newFamily(j, p)
	}
	defer f.abandon()
	if err := f.fanOut(s.batch); err != nil {
		return nil, err
	}
	tm := time.NewTimer(j.deadline.Sub(s.now()))
	defer tm.Stop()
	for n := 0; n < len(f.tasks); {
		// Collect what is ready, else sleep until a result, the deadline or a
		// queued flight to run. No timer is seen from inside a subsolve: the
		// deadline is answered when the one being run returns.
		var r subResult
		select {
		case r = <-f.out:
		case <-tm.C:
			return nil, errBatchDeadline
		default:
			select {
			case r = <-f.out:
			case <-tm.C:
				return nil, errBatchDeadline
			case <-s.batch.wake:
				s.batch.help(actor) // a token received is a take owed
				continue
			}
		}
		if r.err != nil {
			return nil, r.err
		}
		f.results[r.idx], f.landed[r.idx] = r.res, true
		n++
	}
	return solver.Combine(p, f.results)
}
