package serve

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/solver"
)

// Failure reasons of StatusFailed outcomes.
const (
	// failDeadline marks a request whose deadline expired before an attempt
	// could complete.
	failDeadline = "deadline"
	// failError marks a request whose every attempt failed.
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
// state; with no job it runs queued flights.
// During a drain it sheds instead of running, racing the drain loop for the
// same jobs — each job is dequeued exactly once, so shed exactly once.
func (s *Server) executor(i int) {
	defer s.execWG.Done()
	actor := "exec-" + strconv.Itoa(i)
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
			s.runJob(actor, j)
		case <-s.batch.wake:
			s.batch.help(actor)
		}
	}
}

// runJob drives one admitted job through the retry loop: each attempt
// solves the family through the batcher within the remaining deadline, a
// failed attempt is retried under backoff while attempts and deadline both
// still allow, and the first terminal condition wins.
func (s *Server) runJob(actor string, j *job) {
	s.hWait.Observe(s.now().Sub(j.admitted).Microseconds())

	p := solver.Params{
		Root: j.req.Root, Level: j.req.Level, Tol: j.req.Tol,
		Solver: j.lin, Problem: s.problem, Obs: s.rec,
	}
	fam := j.fam // fanned out at admission
	failures := 0
	for attempt := 1; ; attempt++ {
		if !s.now().Before(j.deadline) {
			s.finishFailed(j, failDeadline, http.StatusGatewayTimeout, attempt-1, failures)
			return
		}
		out, err := s.solveBatched(actor, j, fam, p)
		fam = nil // a later attempt fans out afresh
		if err == nil {
			s.finishSolved(j, out, attempt, failures)
			return
		}
		if errors.Is(err, errBatchDeadline) {
			s.finishFailed(j, failDeadline, http.StatusGatewayTimeout, attempt, failures)
			return
		}
		failures++
		if attempt >= s.cfg.Attempts {
			s.finishFailed(j, failError, http.StatusInternalServerError, attempt, failures)
			return
		}
		delay := s.cfg.Backoff.Delay(attempt)
		if s.now().Add(delay).After(j.deadline) {
			s.finishFailed(j, failDeadline, http.StatusGatewayTimeout, attempt, failures)
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
func (s *Server) finishSolved(j *job, out *solver.Output, attempts, failures int) {
	s.cCompleted.Inc()
	s.rec.Emit(obs.KServeComplete, j.tenant, "", j.id, int64(attempts))
	s.settle(j, false, outcome{
		status: StatusCompleted, httpStatus: http.StatusOK, out: out,
		attempts: attempts, failures: failures,
	})
}

// finishFailed settles a permanent failure. A request whose attempts all
// failed counts against the tenant's circuit breaker; a deadline expiry
// does not — a tight client deadline is not tenant misbehavior.
func (s *Server) finishFailed(j *job, reason string, httpStatus, attempts, failures int) {
	s.cFailed.Inc()
	s.rec.Emit(obs.KServeFail, j.tenant, reason, j.id, int64(failures))
	s.settle(j, reason != failDeadline, outcome{
		status: StatusFailed, httpStatus: httpStatus, reason: reason,
		attempts: attempts, failures: failures,
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
func (s *Server) settle(j *job, failed bool, oc outcome) {
	j.fam.abandon() // its flights are listed before any executor owns the job
	oc.elapsed = s.now().Sub(j.admitted)
	s.hRequest.Observe(oc.elapsed.Microseconds())
	s.tenants.settle(j.tenant, failed)
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
