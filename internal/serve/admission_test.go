package serve

import (
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestTenantQuotaRefills(t *testing.T) {
	clock := newFakeClock()
	s, ts := newTestServer(t, Config{
		QueueDepth: 4, Executors: 1,
		TenantRate: 1, TenantBurst: 2,
		Now: clock.Now,
	})
	s.Start()
	defer s.Drain(time.Minute)

	req := SolveRequest{Tenant: "alice", Root: 1, Level: 0, Tol: 1e-2}
	for i := 0; i < 2; i++ {
		code, sr, _ := postSolve(t, ts.URL, req, nil)
		if code != http.StatusOK || sr.Status != StatusCompleted {
			t.Fatalf("burst request %d: %d %q, want 200 completed", i, code, sr.Status)
		}
	}
	// Bucket empty, clock frozen: the third request is shed with the exact
	// refill wait.
	code, sr, hdr := postSolve(t, ts.URL, req, nil)
	if code != http.StatusTooManyRequests || sr.Status != StatusShed || sr.Reason != shedQuota {
		t.Fatalf("over-quota: %d %q/%q, want 429 shed/quota", code, sr.Status, sr.Reason)
	}
	if ra, _ := strconv.Atoi(hdr.Get("Retry-After")); ra < 1 {
		t.Fatalf("over-quota Retry-After = %q, want >= 1s", hdr.Get("Retry-After"))
	}
	// Another tenant has their own bucket.
	if code, sr, _ := postSolve(t, ts.URL, SolveRequest{Tenant: "bob", Root: 1, Level: 0, Tol: 1e-2}, nil); code != http.StatusOK {
		t.Fatalf("bob sharing alice's bucket: %d %q", code, sr.Status)
	}
	// One refill interval later the shed tenant is admitted again.
	clock.Advance(time.Second)
	if code, sr, _ := postSolve(t, ts.URL, req, nil); code != http.StatusOK || sr.Status != StatusCompleted {
		t.Fatalf("after refill: %d %q, want 200 completed", code, sr.Status)
	}
	checkLedger(t, s)
}

func TestInflightCap(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 4, Executors: 1, MaxInflight: 1})
	defer s.Drain(time.Minute)

	// First request admitted and parked in the queue (no executors yet).
	first := make(chan SolveResponse, 1)
	go func() {
		_, sr, _, err := tryPost(ts.URL, SolveRequest{Tenant: "alice", Root: 1, Level: 0, Tol: 1e-2}, nil)
		if err != nil {
			sr.Status = "transport-error: " + err.Error()
		}
		first <- sr
	}()
	waitFor(t, "first job admitted", func() bool {
		return s.rec.KindCount(obs.KServeAccept) == 1
	})

	code, sr, _ := postSolve(t, ts.URL, SolveRequest{Tenant: "alice", Root: 1, Level: 0, Tol: 1e-2}, nil)
	if code != http.StatusTooManyRequests || sr.Reason != shedInflight {
		t.Fatalf("over inflight cap: %d %q/%q, want 429 shed/inflight", code, sr.Status, sr.Reason)
	}

	s.Start()
	if sr := <-first; sr.Status != StatusCompleted {
		t.Fatalf("first job status %q, want completed", sr.Status)
	}
	// The slot is free again once the first request settled.
	if code, sr, _ := postSolve(t, ts.URL, SolveRequest{Tenant: "alice", Root: 1, Level: 0, Tol: 1e-2}, nil); code != http.StatusOK {
		t.Fatalf("after settle: %d %q, want 200", code, sr.Status)
	}
	checkLedger(t, s)
}

func TestBreakerTripHalfOpenRetrip(t *testing.T) {
	clock := newFakeClock()
	// The single-grid job under Attempts=1 fails on one scripted panic in
	// its one flight. The two-panic plan walks the breaker through its whole
	// state machine: request 1 trips it, the first half-open probe fails and
	// re-trips it, the second probe runs fault-free (plan spent) and closes
	// it.
	s, ts := newTestServer(t, Config{
		QueueDepth: 4, Executors: 1, Attempts: 1,
		BreakerThreshold: 1, BreakerCooldown: 10 * time.Second,
		Now:    clock.Now,
		Faults: core.PlanFaults(0, core.FaultPanic, core.FaultPanic),
	})
	s.Start()
	defer s.Drain(time.Minute)

	req := SolveRequest{Tenant: "alice", Root: 1, Level: 0, Tol: 1e-2}

	// Request 1: its one attempt panics, the request fails permanently and
	// the breaker trips.
	code, sr, _ := postSolve(t, ts.URL, req, nil)
	if code != http.StatusInternalServerError || sr.Status != StatusFailed || sr.Reason != failError {
		t.Fatalf("failed attempt: %d %q/%q, want 500 failed/error", code, sr.Status, sr.Reason)
	}
	if sr.Failures != 1 {
		t.Fatalf("failures charged = %d, want 1", sr.Failures)
	}

	// Request 2: breaker open — shed with the cooldown as Retry-After.
	code, sr, hdr := postSolve(t, ts.URL, req, nil)
	if code != http.StatusTooManyRequests || sr.Reason != shedBreaker {
		t.Fatalf("open breaker: %d %q/%q, want 429 shed/breaker", code, sr.Status, sr.Reason)
	}
	if ra, _ := strconv.Atoi(hdr.Get("Retry-After")); ra < 1 || ra > 10 {
		t.Fatalf("open-breaker Retry-After = %q, want within the 10s cooldown", hdr.Get("Retry-After"))
	}

	// Cooldown over: the half-open probe is admitted, fails on panic 2,
	// and re-trips the breaker.
	clock.Advance(10 * time.Second)
	code, sr, _ = postSolve(t, ts.URL, req, nil)
	if code != http.StatusInternalServerError || sr.Reason != failError {
		t.Fatalf("failing probe: %d %q/%q, want 500 failed/error", code, sr.Status, sr.Reason)
	}
	if code, sr, _ := postSolve(t, ts.URL, req, nil); code != http.StatusTooManyRequests || sr.Reason != shedBreaker {
		t.Fatalf("after failed probe: %d %q/%q, want 429 shed/breaker", code, sr.Status, sr.Reason)
	}

	// Second cooldown: the plan is spent, the probe succeeds, the breaker
	// closes, and the tenant is back to normal service.
	clock.Advance(10 * time.Second)
	code, sr, _ = postSolve(t, ts.URL, req, nil)
	if code != http.StatusOK || sr.Status != StatusCompleted {
		t.Fatalf("recovering probe: %d %q, want 200 completed", code, sr.Status)
	}
	// The breaker is per tenant: alice's history never touched bob.
	if code, sr, _ := postSolve(t, ts.URL, SolveRequest{Tenant: "bob", Root: 1, Level: 0, Tol: 1e-2}, nil); code != http.StatusOK {
		t.Fatalf("bob after alice's trips: %d %q, want 200", code, sr.Status)
	}

	if trips := s.rec.KindCount(obs.KBreakerTrip); trips != 2 {
		t.Fatalf("breaker trips = %d, want 2 (initial + failed probe)", trips)
	}
	if probes := s.rec.KindCount(obs.KBreakerProbe); probes != 2 {
		t.Fatalf("breaker probes = %d, want 2", probes)
	}
	if closes := s.rec.KindCount(obs.KBreakerClose); closes != 1 {
		t.Fatalf("breaker closes = %d, want 1", closes)
	}
	checkLedger(t, s)
}
