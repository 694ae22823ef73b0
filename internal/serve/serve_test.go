package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/solver"
)

// fakeClock is the Config.Now test seam: admission, deadlines, and the
// breaker cooldown all read it, so quota refills and cooldown expiries
// happen exactly when a test advances it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newTestServer builds a server over httptest. Executors are NOT started —
// tests that want them call srv.Start(), and tests that want a full queue
// first get to set one up deterministically.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Backoff == nil {
		cfg.Backoff = core.NewBackoff(1, time.Millisecond, 4*time.Millisecond)
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// tryPost issues one solve request; safe from any goroutine.
func tryPost(base string, req SolveRequest, hdr map[string]string) (int, SolveResponse, http.Header, error) {
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, base+"/solve", bytes.NewReader(body))
	if err != nil {
		return 0, SolveResponse{}, nil, err
	}
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return 0, SolveResponse{}, nil, err
	}
	defer resp.Body.Close()
	var sr SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return resp.StatusCode, SolveResponse{}, resp.Header, err
	}
	return resp.StatusCode, sr, resp.Header, nil
}

// postSolve is tryPost with test-fatal error handling (main goroutine only).
func postSolve(t *testing.T, base string, req SolveRequest, hdr map[string]string) (int, SolveResponse, http.Header) {
	t.Helper()
	code, sr, h, err := tryPost(base, req, hdr)
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	return code, sr, h
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// checkLedger asserts the service's accounting invariant both ways: the
// terminal counters partition serve.requests exactly, every terminal
// counter equals its event's drop-proof KindCount, and no tenant is left
// holding an inflight slot.
func checkLedger(t *testing.T, s *Server) {
	t.Helper()
	rec := s.rec
	req := rec.Counter("serve.requests").Value()
	shed := rec.Counter("serve.shed").Value()
	comp := rec.Counter("serve.completed").Value()
	fail := rec.Counter("serve.failed").Value()
	if req != shed+comp+fail {
		t.Fatalf("ledger: requests=%d != shed=%d + completed=%d + failed=%d",
			req, shed, comp, fail)
	}
	pairs := []struct {
		name string
		k    obs.Kind
		c    int64
	}{
		{"serve.shed", obs.KServeShed, shed},
		{"serve.completed", obs.KServeComplete, comp},
		{"serve.failed", obs.KServeFail, fail},
		{"serve.retries", obs.KServeRetry, rec.Counter("serve.retries").Value()},
	}
	for _, p := range pairs {
		if got := rec.KindCount(p.k); got != uint64(p.c) {
			t.Fatalf("ledger: %d %v events vs counter %s=%d", got, p.k, p.name, p.c)
		}
	}
	if _, inflight := s.tenants.snapshot(); inflight != 0 {
		t.Fatalf("ledger: %d tenant inflight slots leaked", inflight)
	}
}

func TestSolveEndToEnd(t *testing.T) {
	// The zero Config is the production service: batcher and solver cache on.
	s, ts := newTestServer(t, Config{})
	s.Start()
	defer s.Drain(time.Minute)

	req := SolveRequest{Tenant: "alice", Root: 1, Level: 1, Tol: 1e-2}
	code, sr, _ := postSolve(t, ts.URL, req, nil)
	if code != http.StatusOK || sr.Status != StatusCompleted {
		t.Fatalf("status %d %q, want 200 completed", code, sr.Status)
	}
	if sr.Tenant != "alice" || sr.Attempts != 1 || sr.ID == 0 {
		t.Fatalf("response %+v: want tenant alice, 1 attempt, nonzero ID", sr)
	}

	// The service answer is the library answer, exactly: JSON float64
	// round-trips, so even the last bit must agree.
	ref, err := solver.Sequential(solver.Params{Root: 1, Level: 1, Tol: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Combined.V.NormInf(); sr.MaxU != want {
		t.Fatalf("service max|u| = %v, library = %v", sr.MaxU, want)
	}
	if sr.Grids != len(ref.Results) {
		t.Fatalf("service grids = %d, library = %d", sr.Grids, len(ref.Results))
	}

	// The same request again finds every shape warm and answers the same.
	_, again, _ := postSolve(t, ts.URL, req, nil)
	sameAnswer(t, "second identical request", again, ref)
	if hits := s.rec.Counter("serve.cache.hits").Value(); hits != int64(len(ref.Results)) {
		t.Fatalf("serve.cache.hits = %d after a repeated request, want %d", hits, len(ref.Results))
	}
	// Every subsolve is a batched task; no pool job is dispatched.
	if tasks, jobs := s.rec.KindCount(obs.KBatchTask), s.rec.KindCount(obs.KJobDispatch); tasks != uint64(2*len(ref.Results)) || jobs != 0 {
		t.Fatalf("%d serve.batch.task and %d job.dispatch events, want %d and 0", tasks, jobs, 2*len(ref.Results))
	}
	checkLedger(t, s)
}

func TestRequestValidation(t *testing.T) {
	// Neither server is started: a refusal needs no executor, and a hostile
	// request that slipped through would sit in the queue, where the accept
	// count below names it, instead of being solved.
	s, ts := newTestServer(t, Config{MaxLevel: 3})
	defer s.Drain(time.Minute)
	small, tsSmall := newTestServer(t, Config{CacheBytes: 4 << 10})
	defer small.Drain(time.Minute)

	cases := []struct {
		name string
		url  string
		body string
		hdr  map[string]string
		want int
	}{
		{"bad json", ts.URL, "{", nil, http.StatusBadRequest},
		{"bad root", ts.URL, `{"root":0,"level":1}`, nil, http.StatusBadRequest},
		{"bad solver", ts.URL, `{"root":1,"level":1,"solver":"cholesky"}`, nil, http.StatusBadRequest},
		{"level beyond cap", ts.URL, `{"root":1,"level":4}`, nil, http.StatusBadRequest},
		{"bad deadline header", ts.URL, `{"root":1,"level":1}`, map[string]string{"X-Deadline-Ms": "soon"}, http.StatusBadRequest},
		// Past on arrival, and (MaxInt64/1e6 + 1 ms) beyond what a time.Duration holds.
		{"negative deadline", ts.URL, `{"root":1,"level":1,"deadline_ms":-1}`, nil, http.StatusBadRequest},
		{"negative deadline header", ts.URL, `{"root":1,"level":1}`, map[string]string{"X-Deadline-Ms": "-1"}, http.StatusBadRequest},
		{"deadline wraps", ts.URL, `{"root":1,"level":1,"deadline_ms":9223372036855}`, nil, http.StatusBadRequest},
		{"deadline header wraps", ts.URL, `{"root":1,"level":1}`, map[string]string{"X-Deadline-Ms": "9223372036855"}, http.StatusBadRequest},
		// One 8191² grid: some 42 GB by entryBytes' own estimate.
		{"oversized root", ts.URL, `{"root":13,"level":0}`, nil, http.StatusBadRequest},
		{"root wraps the grid dimensions", ts.URL, `{"root":64,"level":0}`, nil, http.StatusBadRequest},
		{"1 MiB body", ts.URL, `{"root":1,"level":1,"tenant":"` + strings.Repeat("a", 1<<20) + `"}`, nil, http.StatusBadRequest},
		// The bound follows the budget: TestSolveEndToEnd solves this shape
		// under the default one.
		{"shape beyond a small cache", tsSmall.URL, `{"root":1,"level":1}`, nil, http.StatusBadRequest},
	}
	client := &http.Client{Timeout: 5 * time.Second} // an admitted request is never answered here
	for _, tc := range cases {
		hreq, _ := http.NewRequest(http.MethodPost, tc.url+"/solve", strings.NewReader(tc.body))
		for k, v := range tc.hdr {
			hreq.Header.Set(k, v)
		}
		resp, err := client.Do(hreq)
		if err != nil {
			t.Fatalf("%s: %v (%d requests admitted)", tc.name, err,
				s.rec.KindCount(obs.KServeAccept)+small.rec.KindCount(obs.KServeAccept))
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	if resp, err := http.Get(ts.URL + "/solve"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /solve: status %d, want 405", resp.StatusCode)
		}
	}
	// Invalid requests are refused before admission: no ledger movement.
	for _, srv := range []*Server{s, small} {
		if got := srv.rec.Counter("serve.requests").Value(); got != 0 {
			t.Fatalf("invalid requests moved the ledger: serve.requests = %d", got)
		}
	}
}

func TestHeaderOverridesAndSolverChoice(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 4, Executors: 1})
	s.Start()
	defer s.Drain(time.Minute)

	code, sr, _ := postSolve(t, ts.URL,
		SolveRequest{Tenant: "body-tenant", Root: 1, Level: 0, Tol: 1e-2, Solver: "ilu"},
		map[string]string{"X-Tenant": "header-tenant", "X-Deadline-Ms": "30000"})
	if code != http.StatusOK || sr.Status != StatusCompleted {
		t.Fatalf("status %d %q, want 200 completed", code, sr.Status)
	}
	if sr.Tenant != "header-tenant" {
		t.Fatalf("tenant %q: X-Tenant header must win over the body", sr.Tenant)
	}
	checkLedger(t, s)
}

func TestQueueFullSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 1, Executors: 1})
	defer s.Drain(time.Minute)

	first := make(chan SolveResponse, 1)
	go func() {
		_, sr, _, err := tryPost(ts.URL, SolveRequest{Root: 1, Level: 0, Tol: 1e-2}, nil)
		if err != nil {
			sr.Status = "transport-error: " + err.Error()
		}
		first <- sr
	}()
	waitFor(t, "first job queued", func() bool {
		return s.rec.KindCount(obs.KServeAccept) == 1
	})

	code, sr, hdr := postSolve(t, ts.URL, SolveRequest{Root: 1, Level: 0, Tol: 1e-2}, nil)
	if code != http.StatusServiceUnavailable || sr.Status != StatusShed || sr.Reason != shedQueueFull {
		t.Fatalf("status %d %q/%q, want 503 shed/queue-full", code, sr.Status, sr.Reason)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("queue-full shed without a Retry-After header")
	}

	s.Start()
	if sr := <-first; sr.Status != StatusCompleted {
		t.Fatalf("first job status %q, want completed", sr.Status)
	}
	checkLedger(t, s)
}

func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 2, Executors: 1})
	s.Start()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string `json:"status"`
	}
	json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz: %d %q, want 200 ok", resp.StatusCode, hz.Status)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "serve.requests") {
		t.Fatalf("metrics output lacks serve.requests:\n%s", body)
	}

	if clean := s.Drain(time.Minute); !clean {
		t.Fatal("drain of an idle server timed out")
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
}
