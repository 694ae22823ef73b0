package serve

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/solver"
)

// Failure reasons of StatusFailed outcomes.
const (
	// failBudget marks a request that exhausted its failure budget; it is
	// the outcome that counts against the tenant's circuit breaker.
	failBudget = "budget"
	// failDeadline marks a request whose deadline expired before an attempt
	// could complete.
	failDeadline = "deadline"
	// failError marks a permanent solve error (all attempts consumed).
	failError = "error"
)

// Start launches the executors, the one pool that runs requests and batched
// subsolves. Jobs enqueued before Start sit in the queue — tests use this
// to fill the queue deterministically.
func (s *Server) Start() {
	s.execWG.Add(s.cfg.Executors)
	for i := 0; i < s.cfg.Executors; i++ {
		go s.executor(i)
	}
}

// executor pulls admitted jobs off the queue and runs them to a terminal
// state; with no job it runs queued flights on the team it owns for life.
// During a drain it sheds instead of running, racing the drain loop for the
// same jobs — each job is dequeued exactly once, so shed exactly once.
func (s *Server) executor(i int) {
	defer s.execWG.Done()
	actor := "exec-" + strconv.Itoa(i)
	team := linalg.NewTeam(s.cfg.BatchTeam)
	defer team.Close()
	for {
		select {
		case <-s.quit:
			return
		case j := <-s.queue:
			s.gQueue.Set(int64(len(s.queue)))
			if s.draining.Load() {
				s.shedQueued(j)
				continue
			}
			s.runJob(actor, team, j)
		case <-s.batch.wake:
			s.batch.help(actor, team)
		}
	}
}

// runJob drives one admitted job through the retry loop: each solve
// attempt gets the remaining deadline and failure budget, failed attempts
// are retried under backoff while attempts, budget, and deadline all
// still allow, and the first terminal condition wins.
func (s *Server) runJob(actor string, team *linalg.Team, j *job) {
	s.hWait.Observe(s.now().Sub(j.admitted).Microseconds())

	fam := j.fam // fanned out at admission
	var (
		failures  int // failed worker attempts charged to this request
		retries   int // pool-level resubmissions across attempts
		fallbacks int // master-local recoveries across attempts
	)
	for attempt := 1; ; attempt++ {
		remaining := j.deadline.Sub(s.now())
		if remaining <= 0 {
			s.finishFailed(j, failDeadline, http.StatusGatewayTimeout, attempt-1, failures, retries, fallbacks)
			return
		}
		budget := 0 // unlimited
		if s.cfg.FailureBudget > 0 {
			budget = s.cfg.FailureBudget - failures
			if budget <= 0 {
				s.finishFailed(j, failBudget, http.StatusInternalServerError, attempt-1, failures, retries, fallbacks)
				return
			}
		}
		wd := s.cfg.WorkerDeadline
		if remaining < wd {
			wd = remaining
		}
		params := solver.Params{
			Root: j.req.Root, Level: j.req.Level, Tol: j.req.Tol,
			Solver: j.lin, Problem: s.problem,
			Retries: s.cfg.Retries, FailureBudget: budget,
			WorkerDeadline: wd, Backoff: s.cfg.Backoff,
			Faults: s.cfg.Faults, Obs: s.rec,
		}
		var (
			out *solver.Output
			err error
		)
		if s.cfg.Faults != nil {
			// The batcher has no worker pool to inject faults into, and the
			// fault suite's contract is per-request pools. Only the final
			// attempt turns on the master-local fallback, the last resort.
			params.Fallback = attempt >= s.cfg.Attempts
			out, err = solver.Concurrent(params)
		} else {
			out, err = s.solveBatched(actor, team, j, fam, params)
			fam = nil // a later attempt fans out afresh
		}
		if err == nil {
			failures += out.Faults.Failures
			retries += out.Faults.Retries
			fallbacks += out.Faults.Fallbacks
			s.finishSolved(j, out, attempt, failures, retries, fallbacks)
			return
		}

		if errors.Is(err, errBatchDeadline) {
			s.finishFailed(j, failDeadline, http.StatusGatewayTimeout, attempt, failures, retries, fallbacks)
			return
		}
		var be core.BudgetExhausted
		if errors.As(err, &be) {
			// The attempt spent everything it was given; the request's
			// cumulative budget is gone with it.
			failures += be.Failures
			s.finishFailed(j, failBudget, http.StatusInternalServerError, attempt, failures, retries, fallbacks)
			return
		}
		var jf *core.JobFailed
		if errors.As(err, &jf) {
			failures += jf.Attempts
		} else {
			failures++
		}
		if s.cfg.FailureBudget > 0 && failures >= s.cfg.FailureBudget {
			s.finishFailed(j, failBudget, http.StatusInternalServerError, attempt, failures, retries, fallbacks)
			return
		}
		if attempt >= s.cfg.Attempts {
			s.finishFailed(j, failError, http.StatusInternalServerError, attempt, failures, retries, fallbacks)
			return
		}
		delay := s.cfg.Backoff.Delay(attempt)
		if s.now().Add(delay).After(j.deadline) {
			s.finishFailed(j, failDeadline, http.StatusGatewayTimeout, attempt, failures, retries, fallbacks)
			return
		}
		s.cRetries.Inc()
		s.rec.Emit(obs.KServeRetry, j.tenant, "", j.id, int64(attempt))
		if delay > 0 {
			time.Sleep(delay)
		}
	}
}

// finishSolved settles a successful attempt. Exactly one counter, one
// event, one done delivery.
func (s *Server) finishSolved(j *job, out *solver.Output, attempts, failures, retries, fallbacks int) {
	s.cCompleted.Inc()
	s.rec.Emit(obs.KServeComplete, j.tenant, "", j.id, int64(attempts))
	s.settle(j, false, outcome{
		status: StatusCompleted, httpStatus: http.StatusOK, out: out,
		attempts: attempts, failures: failures, retries: retries, fallbacks: fallbacks,
	})
}

// finishFailed settles a permanent failure. Budget exhaustion and solve
// errors count against the tenant's circuit breaker; a deadline expiry
// does not — a tight client deadline is not tenant misbehavior.
func (s *Server) finishFailed(j *job, reason string, httpStatus, attempts, failures, retries, fallbacks int) {
	s.cFailed.Inc()
	s.rec.Emit(obs.KServeFail, j.tenant, reason, j.id, int64(failures))
	s.settle(j, reason != failDeadline, outcome{
		status: StatusFailed, httpStatus: httpStatus, reason: reason,
		attempts: attempts, failures: failures, retries: retries, fallbacks: fallbacks,
	})
}

// shedQueued sheds a job that was admitted but never run (drain), and
// abandons the family it fanned out at admission. The admission is released
// rather than settled so the breaker is untouched.
func (s *Server) shedQueued(j *job) {
	j.fam.abandon()
	s.cShed.Inc()
	s.rec.Emit(obs.KServeShed, j.tenant, shedDraining, j.id, 0)
	s.tenants.release(j.tenant)
	s.gInflight.Add(-1)
	s.jobsWG.Done()
	j.done <- outcome{
		status: StatusShed, httpStatus: http.StatusServiceUnavailable,
		reason: shedDraining, retryAfter: time.Second,
		elapsed: s.now().Sub(j.admitted),
	}
}

// settle is the single exit of every run job: abandonment of its first
// family, breaker accounting, latency histogram, inflight bookkeeping, and
// the exactly-once done delivery.
func (s *Server) settle(j *job, budgetFailure bool, oc outcome) {
	j.fam.abandon() // its flights are listed before any executor owns the job
	oc.elapsed = s.now().Sub(j.admitted)
	s.hRequest.Observe(oc.elapsed.Microseconds())
	s.tenants.settle(j.tenant, budgetFailure)
	s.gInflight.Add(-1)
	s.jobsWG.Done()
	j.done <- oc
}

// Drain performs the graceful-shutdown sequence: stop admitting (under
// the admission write-lock, so no request is mid-admission when it
// returns), shed everything still queued, wait up to timeout for inflight
// jobs to reach a terminal state, then stop the executors. It reports
// whether the drain was clean (true) or timed out with jobs still
// running (false). Safe to call once; later calls wait for the first and
// return its result.
func (s *Server) Drain(timeout time.Duration) bool {
	s.admitMu.Lock()
	already := s.draining.Swap(true)
	s.admitMu.Unlock()
	if already {
		<-s.drained
		return s.drainClean
	}
	s.rec.Emit(obs.KDrainBegin, "serve", "", int64(len(s.queue)), 0)

	// Shed the backlog. Executors that dequeue concurrently shed too
	// (they see draining); each job is dequeued exactly once. Admission
	// is closed, so the queue cannot refill.
shedLoop:
	for {
		select {
		case j := <-s.queue:
			s.shedQueued(j)
		default:
			break shedLoop
		}
	}
	s.gQueue.Set(0)

	// Wait for inflight jobs — admitted, not yet terminal — to settle.
	settled := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(settled)
	}()
	clean := true
	select {
	case <-settled:
	case <-time.After(timeout):
		clean = false
	}
	if clean {
		s.rec.Emit(obs.KDrainEnd, "serve", "", 1, 0)
	} else {
		s.rec.Emit(obs.KDrainEnd, "serve", "", 0, 0)
	}

	// The batcher closes after inflight jobs settled (clean) or were
	// given up on (timeout): a clean drain has only abandoned tasks left,
	// an unclean one fails whatever is still pending so stuck requests
	// settle as failed rather than run on.
	s.batch.close()
	close(s.quit)
	if clean {
		// Executors exit on quit once idle; with jobs still stuck past
		// the timeout, waiting here could block forever, so only a clean
		// drain joins them.
		s.execWG.Wait()
	}
	s.drainClean = clean
	close(s.drained)
	return clean
}
