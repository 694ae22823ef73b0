// Fault tolerance for the master/worker protocol.
//
// The paper's deployment absorbs worker loss through MLINK {perpetual} task
// instances: a dying worker is a normal event, and the next worker is simply
// installed in a fresh (or recycled) task instance. This file gives the
// protocol the matching semantics at the coordination level: a Pool tracks
// every submitted job, bounds how long the master waits for any single
// worker, and — on a worker panic, deadline expiry, or corrupt result —
// resubmits the job to a freshly created worker, bounded by a per-job retry
// budget and a run-level failure budget. The protocol, not the computation,
// owns the failure semantics.

package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/manifold"
	"repro/internal/obs"
)

// Policy configures the fault tolerance of one Run.
type Policy struct {
	// Retries is the per-job retry budget: how many times a failed job is
	// resubmitted to a fresh worker before it is reported as JobFailed.
	Retries int
	// FailureBudget caps the total number of failed worker attempts across
	// the run; once exceeded the run's pools stop retrying and report
	// BudgetExhausted. 0 means unlimited.
	FailureBudget int
	// WorkerDeadline bounds how long the master waits for any single
	// worker; a worker that has not delivered within the deadline is
	// abandoned (its death is raised on its behalf) and its job retried.
	// 0 means no deadline.
	WorkerDeadline time.Duration
	// Backoff, when non-nil, paces job resubmissions: retry attempt n is
	// dispatched only after Backoff.Delay(n) has elapsed, so a flapping
	// resource is not hammered by an immediate-retry storm. The pause is
	// taken in the collecting goroutine and is bounded by Backoff.Max; nil
	// (the default) keeps the historical retry-immediately behaviour.
	Backoff *Backoff
	// Injector, when non-nil, deterministically makes worker bodies panic,
	// hang, or corrupt their results (tests and the CLI -faults flag).
	Injector *FaultInjector
	// Validate, when non-nil, checks every successful result unit; an error
	// counts as a failed attempt of that job (corrupt-result detection).
	Validate func(result any) error
	// Obs, when non-nil, records the run's protocol events (dispatches,
	// retries, abandonments, rendezvous) and metrics into the observability
	// layer; nil (the default) costs nothing on any path.
	Obs *obs.Recorder
}

// Stats accounts the failure handling of one Run.
type Stats struct {
	// Workers counts the worker processes created (including retries).
	Workers int
	// Deaths counts the death_worker events consumed at rendezvous; a
	// correct run has Deaths == Workers, faults or not.
	Deaths int
	// Failures counts failed worker attempts (panics, deadline expiries,
	// rejected results).
	Failures int
	// Retries counts job resubmissions to fresh workers.
	Retries int
	// Abandoned counts workers given up on after their deadline.
	Abandoned int
}

// JobFailed reports a job that exhausted its retry budget. The master can
// degrade gracefully (e.g. compute the job locally) using the embedded Job.
type JobFailed struct {
	Job      manifold.Unit
	ID       int
	Attempts int
	LastErr  error
}

// Error describes the exhausted job and its last failure cause.
func (e *JobFailed) Error() string {
	return fmt.Sprintf("core: job %d failed after %d attempts: %v", e.ID, e.Attempts, e.LastErr)
}

// Unwrap exposes the last failure cause to errors.Is/As chains.
func (e *JobFailed) Unwrap() error { return e.LastErr }

// BudgetExhausted reports that the run-level failure budget was spent.
type BudgetExhausted struct {
	Failures, Budget int
}

// Error reports how far past the budget the run's failures went.
func (e BudgetExhausted) Error() string {
	return fmt.Sprintf("core: failure budget exhausted: %d failures > budget %d", e.Failures, e.Budget)
}

// DeadlineExpired is the per-attempt failure cause of an abandoned worker.
type DeadlineExpired struct {
	Worker   string
	Deadline time.Duration
}

// Error names the abandoned worker and the deadline it missed.
func (e DeadlineExpired) Error() string {
	return fmt.Sprintf("core: worker %s missed its %v deadline", e.Worker, e.Deadline)
}

// jobEnvelope tags a job with its pool-local ID so results and failures can
// be correlated with the job that produced them. Worker.Read unwraps it.
type jobEnvelope struct {
	ID  int
	Job manifold.Unit
}

// resultEnvelope is the tagged counterpart written by Worker.Write.
type resultEnvelope struct {
	ID   int
	Unit manifold.Unit
}

// jobRec is the master-side record of one submitted job.
type jobRec struct {
	id       int
	job      manifold.Unit
	attempts int
	worker   *manifold.Process
	deadline time.Time // zero = none
	started  time.Time // dispatch time of the current attempt (obs only)
	lastErr  error
}

// Pool is the retry-aware façade over one worker pool: Submit hands a job
// to a fresh worker, Collect returns successful results (transparently
// retrying failed attempts) and surfaces permanent failures as errors.
type Pool struct {
	m           *Master
	outstanding map[int]*jobRec    // by job ID
	byWorker    map[string]*jobRec // by current worker name
	pending     []error            // permanent failures awaiting Collect
	nextID      int
	budgetErr   error // sticky once the failure budget is exhausted

	obs      *obs.Recorder  // nil = observability off
	jobHist  *obs.Histogram // dispatch-to-result latency per attempt
	outGauge *obs.Gauge     // outstanding jobs
}

// NewPool raises create_pool and returns the retry-aware pool handle
// operating under the run's Policy.
func (m *Master) NewPool() *Pool {
	m.CreatePool()
	rec := m.state.obs
	return &Pool{
		m:           m,
		outstanding: make(map[int]*jobRec),
		byWorker:    make(map[string]*jobRec),
		obs:         rec,
		jobHist:     rec.Histogram("core.job.attempt.us"),
		outGauge:    rec.Gauge("core.jobs.outstanding"),
	}
}

// Submit creates a worker for the job and charges it (steps 3b-3d with
// failure tracking). Call Collect once per Submit.
func (pl *Pool) Submit(job manifold.Unit) {
	id := pl.nextID
	pl.nextID++
	pl.dispatch(&jobRec{id: id, job: job})
}

// dispatch sends rec's job to a freshly created worker and (re)arms its
// deadline.
func (pl *Pool) dispatch(rec *jobRec) {
	w := pl.m.CreateWorker()
	rec.worker = w
	rec.attempts++
	rec.deadline = time.Time{}
	if d := pl.m.policy().WorkerDeadline; d > 0 {
		rec.deadline = time.Now().Add(d)
	}
	pl.outstanding[rec.id] = rec
	pl.byWorker[w.Name()] = rec
	if pl.obs != nil {
		rec.started = time.Now()
		pl.obs.Emit(obs.KJobDispatch, w.Name(), "", int64(rec.id), int64(rec.attempts))
		pl.outGauge.Set(int64(len(pl.outstanding)))
	}
	pl.m.Send(jobEnvelope{ID: rec.id, Job: rec.job})
}

// Collect returns the next successful result. Failed attempts are retried
// transparently; a job that exhausts its retry budget yields a *JobFailed
// error, and once the run-level failure budget is spent every remaining
// Collect returns BudgetExhausted. Results arrive in completion order.
func (pl *Pool) Collect() (manifold.Unit, error) {
	for {
		if len(pl.pending) > 0 {
			err := pl.pending[0]
			pl.pending = pl.pending[1:]
			return nil, err
		}
		if pl.budgetErr != nil {
			return nil, pl.budgetErr
		}
		if len(pl.outstanding) == 0 {
			return nil, fmt.Errorf("core: Collect with no outstanding jobs")
		}
		u, err := pl.read()
		if err != nil {
			// Deadline tick: fail every overdue worker, then loop.
			pl.expireOverdue()
			continue
		}
		switch v := u.(type) {
		case resultEnvelope:
			rec, ok := pl.outstanding[v.ID]
			if !ok {
				continue // stale result from an abandoned attempt
			}
			if validate := pl.m.policy().Validate; validate != nil {
				if verr := validate(v.Unit); verr != nil {
					pl.fail(rec, verr, false)
					continue
				}
			}
			delete(pl.outstanding, rec.id)
			delete(pl.byWorker, rec.worker.Name())
			if pl.obs != nil {
				pl.obs.Emit(obs.KJobResult, rec.worker.Name(), "", int64(rec.id), int64(rec.attempts))
				pl.jobHist.ObserveSince(rec.started)
				pl.outGauge.Set(int64(len(pl.outstanding)))
			}
			return v.Unit, nil
		case WorkerFailure:
			rec, ok := pl.byWorker[v.Worker]
			if !ok {
				continue // stale failure from an abandoned attempt
			}
			pl.fail(rec, v, false)
		default:
			return nil, fmt.Errorf("core: unexpected unit %T on dataport", u)
		}
	}
}

// read waits for the next dataport unit, bounded by the nearest outstanding
// deadline (if any).
func (pl *Pool) read() (manifold.Unit, error) {
	var nearest time.Time
	for _, rec := range pl.outstanding {
		if rec.deadline.IsZero() {
			continue
		}
		if nearest.IsZero() || rec.deadline.Before(nearest) {
			nearest = rec.deadline
		}
	}
	if nearest.IsZero() {
		return pl.m.ReadResult(), nil
	}
	return pl.m.ReadResultUntil(nearest)
}

// expireOverdue abandons every worker past its deadline and fails its job.
// Iteration is in job-ID order so failure handling is deterministic.
func (pl *Pool) expireOverdue() {
	now := time.Now()
	var due []*jobRec
	for _, rec := range pl.outstanding {
		if !rec.deadline.IsZero() && !now.Before(rec.deadline) {
			due = append(due, rec)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i].id < due[j].id })
	for _, rec := range due {
		if pl.budgetErr != nil {
			return
		}
		pl.fail(rec, DeadlineExpired{Worker: rec.worker.Name(), Deadline: pl.m.policy().WorkerDeadline}, true)
	}
}

// fail handles one failed attempt: it counts against the failure budget,
// retries the job if its budget allows, and otherwise queues a permanent
// JobFailed. abandon marks attempts whose worker is (possibly) still alive —
// the master raises death_worker on its behalf so the rendezvous count stays
// correct, and closes the worker's input port to unstick a pre-read hang.
func (pl *Pool) fail(rec *jobRec, cause error, abandon bool) {
	rec.lastErr = cause
	if abandon {
		pl.m.abandon(rec.worker)
	}
	delete(pl.byWorker, rec.worker.Name())
	failures := pl.m.state.addFailure()
	if budget := pl.m.policy().FailureBudget; budget > 0 && failures > budget {
		pl.exhaust(BudgetExhausted{Failures: failures, Budget: budget})
		return
	}
	if rec.attempts <= pl.m.policy().Retries {
		pl.m.state.addRetry()
		pl.obs.Emit(obs.KJobRetry, rec.worker.Name(), "", int64(rec.id), int64(rec.attempts))
		// Pace the resubmission. Sleeping here blocks Collect, which is
		// deliberate: results produced meanwhile buffer on the dataport's
		// unbounded stream, and the pause is bounded by Backoff.Max, so
		// failure handling stays ordered and deterministic under a seed.
		if d := pl.m.policy().Backoff.Delay(rec.attempts); d > 0 {
			time.Sleep(d)
		}
		pl.dispatch(rec)
		return
	}
	delete(pl.outstanding, rec.id)
	pl.obs.Emit(obs.KJobFailed, rec.worker.Name(), "", int64(rec.id), int64(rec.attempts))
	pl.pending = append(pl.pending, &JobFailed{Job: rec.job, ID: rec.id, Attempts: rec.attempts, LastErr: cause})
}

// exhaust stops the pool: every outstanding worker is abandoned (so the
// rendezvous still terminates) and the budget error becomes sticky.
func (pl *Pool) exhaust(err BudgetExhausted) {
	pl.budgetErr = err
	pl.obs.Emit(obs.KBudgetExhausted, "Master", "", int64(err.Failures), int64(err.Budget))
	for _, rec := range pl.outstanding {
		pl.m.abandon(rec.worker)
	}
	pl.outstanding = make(map[int]*jobRec)
	pl.byWorker = make(map[string]*jobRec)
}

// Outstanding returns how many submitted jobs have not yet been resolved.
func (pl *Pool) Outstanding() int { return len(pl.outstanding) }
