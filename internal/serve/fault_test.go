package serve

import (
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pde"
	"repro/internal/solver"
)

// TestRetryLadderRecovers: every fault kind lands in the batched flight an
// executor runs. A panic, before the read or after it, and a corrupt result
// fail the request's first attempt; the serve layer retries after backoff,
// the fault-free second attempt completes, and the answer is the sequential
// program's bit for bit. A hang fails nothing: the executor stalls for
// HangFor and then solves, a slow node. No pool job is ever dispatched.
func TestRetryLadderRecovers(t *testing.T) {
	p := solver.Params{Root: 1, Level: 0, Tol: 1e-2, Problem: pde.PaperProblem()}
	ref, err := solver.Sequential(p)
	if err != nil {
		t.Fatal(err)
	}
	const hang = 50 * time.Millisecond
	for _, tc := range []struct {
		kind     core.FaultKind
		attempts int
	}{
		{core.FaultPanic, 2},
		{core.FaultPanicPreRead, 2},
		{core.FaultCorrupt, 2},
		{core.FaultHang, 1},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			faults := core.PlanFaults(hang, tc.kind)
			s, ts := newTestServer(t, Config{QueueDepth: 2, Executors: 1, Attempts: 2, Faults: faults})
			s.Start()
			defer s.Drain(time.Minute)

			start := time.Now()
			code, sr, _ := postSolve(t, ts.URL, SolveRequest{Root: p.Root, Level: p.Level, Tol: p.Tol}, nil)
			if code != http.StatusOK {
				t.Fatalf("status %d %q, want 200 completed", code, sr.Status)
			}
			sameAnswer(t, "request after a "+tc.kind.String()+" fault", sr, ref)
			failed := tc.attempts - 1
			if sr.Attempts != tc.attempts || sr.Failures != failed {
				t.Fatalf("attempts=%d failures=%d, want %d and %d", sr.Attempts, sr.Failures, tc.attempts, failed)
			}
			if tc.kind == core.FaultHang && time.Since(start) < hang {
				t.Fatalf("request took %v, want the %v stall", time.Since(start), hang)
			}
			rec := s.rec
			if got := rec.Counter("serve.retries").Value(); got != int64(failed) {
				t.Fatalf("serve.retries = %d, want %d", got, failed)
			}
			// One grid, one flight an attempt, one draw a flight; a failed
			// flight's entry is dropped, not parked.
			if drawn, injected := faults.Drawn(), faults.Injected(); drawn != tc.attempts || injected != 1 {
				t.Fatalf("%d faults drawn, %d injected, want %d and 1", drawn, injected, tc.attempts)
			}
			if got := failedDrops(rec); got != failed {
				t.Fatalf("%d entries dropped as failed, want %d", got, failed)
			}
			if tasks, jobs := rec.Counter("serve.batch.tasks").Value(), rec.KindCount(obs.KJobDispatch); tasks != int64(tc.attempts) || jobs != 0 {
				t.Fatalf("serve.batch.tasks = %d and %d job.dispatch events, want %d and 0", tasks, jobs, tc.attempts)
			}
			checkLedger(t, s)
		})
	}
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

// TestHangPastRequestDeadline: a flight that hangs past its request's
// deadline stalls its executor, which cannot abandon a subsolve it runs, and
// the request ends failed/deadline once the hang is over. The family's other
// flights are skipped unsolved, and the stalled executor then serves the
// next request.
func TestHangPastRequestDeadline(t *testing.T) {
	const hang = 600 * time.Millisecond
	faults := core.PlanFaults(hang, core.FaultHang)
	s, ts := newTestServer(t, Config{QueueDepth: 2, Executors: 1, Attempts: 2, Faults: faults})
	s.Start()
	defer s.Drain(time.Minute)

	p := solver.Params{Root: 1, Level: 1, Tol: 1e-2, Problem: pde.PaperProblem()}
	req := SolveRequest{Root: p.Root, Level: p.Level, Tol: p.Tol, DeadlineMs: 200}
	start := time.Now()
	code, sr, _ := postSolve(t, ts.URL, req, nil)
	if elapsed := time.Since(start); elapsed < hang {
		t.Fatalf("answered after %v, within the %v hang its only executor was stalled in", elapsed, hang)
	}
	if code != http.StatusGatewayTimeout || sr.Status != StatusFailed || sr.Reason != failDeadline {
		t.Fatalf("status %d %q/%q, want 504 failed/deadline", code, sr.Status, sr.Reason)
	}
	// The executor may take the flight before the job (attempts 0: the
	// deadline passed before the first) or from inside it (attempts 1);
	// either way no attempt failed.
	if sr.Failures != 0 {
		t.Fatalf("failures = %d, want 0: an expired deadline is no failed attempt", sr.Failures)
	}
	if got := s.rec.KindCount(obs.KSubsolveBegin); got != 1 {
		t.Fatalf("%d subsolves, want 1: the hung flight solves, its siblings are skipped", got)
	}
	checkLedger(t, s)

	ref, err := solver.Sequential(p)
	if err != nil {
		t.Fatal(err)
	}
	req.DeadlineMs = 0
	_, sr, _ = postSolve(t, ts.URL, req, nil)
	sameAnswer(t, "request after the hang", sr, ref)
	if got := faults.Injected(); got != 1 {
		t.Fatalf("%d faults injected, want the one hang", got)
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
		Attempts:    2,
		Faults:      core.NewFaultInjector(42, 0.1, 0.25, 0.1, 0.15, 300*time.Millisecond),
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
	// The faults landed in batched flights: no pool ran.
	if injected, jobs := s.cfg.Faults.Injected(), rec.KindCount(obs.KJobDispatch); injected == 0 || jobs != 0 {
		t.Fatalf("%d faults injected, %d job.dispatch events, want some and none", injected, jobs)
	}
	checkLedger(t, s)
}
