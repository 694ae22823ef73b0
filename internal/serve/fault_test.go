package serve

import (
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestRetryLadderRecovers(t *testing.T) {
	// Attempt 1 runs strict: the scripted panic exhausts the job's pool
	// retries (zero) and fails the whole attempt. The serve layer retries
	// after backoff; attempt 2 is fault-free and completes.
	s, ts := newTestServer(t, Config{
		QueueDepth: 2, Executors: 1,
		Attempts: 2, Retries: 0,
		Faults: core.PlanFaults(0, core.FaultPanic),
	})
	s.Start()
	defer s.Drain(time.Minute)

	code, sr, _ := postSolve(t, ts.URL, SolveRequest{Root: 1, Level: 0, Tol: 1e-2}, nil)
	if code != http.StatusOK || sr.Status != StatusCompleted {
		t.Fatalf("status %d %q, want 200 completed", code, sr.Status)
	}
	if sr.Attempts != 2 || sr.Failures != 1 {
		t.Fatalf("attempts=%d failures=%d, want 2 attempts with 1 charged failure", sr.Attempts, sr.Failures)
	}
	if got := s.rec.KindCount(obs.KServeRetry); got != 1 {
		t.Fatalf("serve.retry events = %d, want 1", got)
	}
	if got := s.rec.Counter("serve.retries").Value(); got != 1 {
		t.Fatalf("serve.retries counter = %d, want 1", got)
	}
	// Faults selects the per-request pool, the one place they can be injected.
	if jobs, tasks := s.rec.KindCount(obs.KJobDispatch), s.rec.KindCount(obs.KBatchTask); jobs == 0 || tasks != 0 {
		t.Fatalf("%d job.dispatch and %d serve.batch.task events, want pool jobs and no batched task", jobs, tasks)
	}
	checkLedger(t, s)
}

func TestBudgetExhaustionBeatsRemainingAttempts(t *testing.T) {
	// Two scripted panics blow the per-request budget inside attempt 1;
	// even with a serve-level attempt left, budget exhaustion is terminal
	// — no retry, one failed request, exact failure accounting.
	s, ts := newTestServer(t, Config{
		QueueDepth: 2, Executors: 1,
		Attempts: 2, Retries: 1, FailureBudget: 1,
		Faults: core.PlanFaults(0, core.FaultPanic, core.FaultPanic),
	})
	s.Start()
	defer s.Drain(time.Minute)

	code, sr, _ := postSolve(t, ts.URL, SolveRequest{Root: 1, Level: 0, Tol: 1e-2}, nil)
	if code != http.StatusInternalServerError || sr.Status != StatusFailed || sr.Reason != failBudget {
		t.Fatalf("status %d %q/%q, want 500 failed/budget", code, sr.Status, sr.Reason)
	}
	if sr.Failures != 2 || sr.Attempts != 1 {
		t.Fatalf("failures=%d attempts=%d, want 2 failures in 1 attempt", sr.Failures, sr.Attempts)
	}
	if got := s.rec.Counter("serve.retries").Value(); got != 0 {
		t.Fatalf("serve.retries = %d: budget exhaustion must not be retried", got)
	}
	checkLedger(t, s)
}

func TestDeadlineExpiredBeforeRun(t *testing.T) {
	clock := newFakeClock()
	s, ts := newTestServer(t, Config{QueueDepth: 2, Executors: 1, Now: clock.Now})
	defer s.Drain(time.Minute)

	// The job is admitted with a 50ms deadline while no executor runs;
	// by the time one dequeues it, the (fake) clock has passed it.
	done := make(chan SolveResponse, 1)
	var gotCode int
	go func() {
		code, sr, _, err := tryPost(ts.URL, SolveRequest{Root: 1, Level: 0, Tol: 1e-2, DeadlineMs: 50}, nil)
		if err != nil {
			sr.Status = "transport-error: " + err.Error()
		}
		gotCode = code
		done <- sr
	}()
	waitFor(t, "job admitted", func() bool {
		return s.rec.KindCount(obs.KServeAccept) == 1
	})
	clock.Advance(100 * time.Millisecond)
	s.Start()

	sr := <-done
	if gotCode != http.StatusGatewayTimeout || sr.Status != StatusFailed || sr.Reason != failDeadline {
		t.Fatalf("status %d %q/%q, want 504 failed/deadline", gotCode, sr.Status, sr.Reason)
	}
	checkLedger(t, s)
}

func TestHangAbandonedWithinRequestDeadline(t *testing.T) {
	// The worker hangs for 5s but the request's 400ms deadline caps the
	// pool's worker deadline, so the master abandons the hung worker at
	// ~400ms and the final-attempt fallback completes the request — the
	// deadline propagated HTTP → envelope → pool → manifold read.
	s, ts := newTestServer(t, Config{
		QueueDepth: 2, Executors: 1,
		Attempts: 1, Retries: 0,
		Faults: core.PlanFaults(5*time.Second, core.FaultHang),
	})
	s.Start()
	defer s.Drain(time.Minute)

	start := time.Now()
	code, sr, _ := postSolve(t, ts.URL, SolveRequest{Root: 1, Level: 0, Tol: 1e-2, DeadlineMs: 400}, nil)
	elapsed := time.Since(start)
	if code != http.StatusOK || sr.Status != StatusCompleted {
		t.Fatalf("status %d %q, want 200 completed via fallback", code, sr.Status)
	}
	if sr.Failures < 1 {
		t.Fatalf("failures = %d, want >= 1 (the abandoned hang)", sr.Failures)
	}
	if elapsed >= 3*time.Second {
		t.Fatalf("request took %v: the master waited out the hang instead of abandoning at the deadline", elapsed)
	}
	if got := s.rec.KindCount(obs.KDeadlineExpired); got < 1 {
		t.Fatal("no deadline.expired event: the request deadline never reached the manifold read")
	}
	checkLedger(t, s)
}

func TestDrainUnderLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, ts := newTestServer(t, Config{QueueDepth: 8, Executors: 2})
	s.Start()

	const n = 6
	results := make(chan SolveResponse, n)
	for i := 0; i < n; i++ {
		go func() {
			_, sr, _, err := tryPost(ts.URL, SolveRequest{Root: 1, Level: 1, Tol: 1e-2}, nil)
			if err != nil {
				sr.Status = "transport-error: " + err.Error()
			}
			results <- sr
		}()
	}
	waitFor(t, "all jobs admitted or settled", func() bool {
		return s.rec.Counter("serve.requests").Value() == n
	})

	if clean := s.Drain(30 * time.Second); !clean {
		t.Fatal("drain under load timed out")
	}
	for i := 0; i < n; i++ {
		sr := <-results
		switch sr.Status {
		case StatusCompleted, StatusShed:
		default:
			t.Fatalf("request ended %q/%q, want completed or shed", sr.Status, sr.Reason)
		}
	}

	// Admission is closed for good.
	code, sr, _ := postSolve(t, ts.URL, SolveRequest{Root: 1, Level: 0, Tol: 1e-2}, nil)
	if code != http.StatusServiceUnavailable || sr.Reason != shedDraining {
		t.Fatalf("post-drain request: %d %q/%q, want 503 shed/draining", code, sr.Status, sr.Reason)
	}

	if got := s.rec.KindCount(obs.KDrainBegin); got != 1 {
		t.Fatalf("drain.begin events = %d, want 1", got)
	}
	if got := s.rec.KindCount(obs.KDrainEnd); got != 1 {
		t.Fatalf("drain.end events = %d, want 1", got)
	}
	checkLedger(t, s)

	// No goroutine leaks: executors joined, client keep-alive connections
	// released.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+4 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d at start, %d after drain", baseline, runtime.NumGoroutine())
}

func TestExactAccountingUnderChaos(t *testing.T) {
	// Probabilistic faults, tight admission, concurrent tenants: whatever
	// happens, the client-side tally of response statuses must equal the
	// server's counters, and the counters must equal the event totals.
	s, ts := newTestServer(t, Config{
		QueueDepth: 4, Executors: 2,
		MaxInflight: 2,
		Attempts:    2, Retries: 1, FailureBudget: 4,
		Faults: core.NewFaultInjector(42, 0.1, 0.25, 0.1, 0.15, 300*time.Millisecond),
	})
	s.Start()

	const n = 12
	results := make(chan SolveResponse, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			req := SolveRequest{
				Tenant: []string{"a", "b", "c"}[i%3],
				Root:   1, Level: i % 2, Tol: 1e-2,
			}
			_, sr, _, err := tryPost(ts.URL, req, nil)
			if err != nil {
				sr.Status = "transport-error: " + err.Error()
			}
			results <- sr
		}(i)
	}

	tally := map[string]int64{}
	for i := 0; i < n; i++ {
		sr := <-results
		tally[sr.Status]++
	}
	if clean := s.Drain(time.Minute); !clean {
		t.Fatal("post-chaos drain timed out")
	}

	rec := s.rec
	if got := rec.Counter("serve.requests").Value(); got != n {
		t.Fatalf("serve.requests = %d, want %d", got, n)
	}
	for status, counter := range map[string]string{
		StatusCompleted: "serve.completed",
		StatusShed:      "serve.shed",
		StatusFailed:    "serve.failed",
	} {
		if got := rec.Counter(counter).Value(); got != tally[status] {
			t.Fatalf("%s = %d but clients saw %d %q responses (tally %v)",
				counter, got, tally[status], status, tally)
		}
	}
	// Every accepted request reached exactly one terminal event.
	accepted := rec.KindCount(obs.KServeAccept)
	terminal := rec.KindCount(obs.KServeComplete) + rec.KindCount(obs.KServeFail)
	if accepted != terminal {
		t.Fatalf("%d accepted requests but %d terminal events", accepted, terminal)
	}
	checkLedger(t, s)
}
