package serve

import (
	"testing"
	"time"
)

func TestRunLoadLedgerMatchesServer(t *testing.T) {
	s, ts := newTestServer(t, Config{
		QueueDepth: 4, Executors: 2,
		TenantRate: 200, TenantBurst: 4, MaxInflight: 3,
	})
	s.Start()

	res := RunLoad(LoadConfig{
		URL: ts.URL, Clients: 4, Requests: 5, Burst: 2, Tenants: 2,
		Root: 1, Level: 0, Tol: 1e-2, Pause: 5 * time.Millisecond, Seed: 7,
	})
	if res.Total != 20 {
		t.Fatalf("total = %d, want 20", res.Total)
	}
	if res.Errors != 0 {
		t.Fatalf("transport errors = %d, want 0", res.Errors)
	}
	if res.Total != res.Completed+res.Shed+res.Failed+res.Errors {
		t.Fatalf("client ledger does not partition: %+v", res)
	}
	if res.Completed == 0 {
		t.Fatalf("no request completed: %+v", res)
	}
	if res.P50 <= 0 || res.Max < res.P99 || res.P99 < res.P95 || res.P95 < res.P50 {
		t.Fatalf("latency profile not monotone: %+v", res)
	}

	// The client-side ledger is the server-side ledger.
	rec := s.rec
	if got := rec.Counter("serve.requests").Value(); got != int64(res.Total) {
		t.Fatalf("serve.requests = %d, client total = %d", got, res.Total)
	}
	for counter, want := range map[string]int{
		"serve.completed": res.Completed,
		"serve.shed":      res.Shed,
		"serve.failed":    res.Failed,
	} {
		if got := rec.Counter(counter).Value(); got != int64(want) {
			t.Fatalf("%s = %d, client saw %d", counter, got, want)
		}
	}
	if clean := s.Drain(time.Minute); !clean {
		t.Fatal("drain timed out")
	}
	checkLedger(t, s)
}
