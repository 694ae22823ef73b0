// Package serve is the multi-tenant solve service: a long-running
// stdlib-net/http JSON job API that accepts solve requests from many
// concurrent clients. There is one production solve path: a request's grid
// family goes through the cross-request batcher and is solved by the
// executors, one pool of goroutines that share warm (Disc, Workspace)
// pairs through the signature-keyed solver cache — the paper's {perpetual}
// task instances. Injected faults (Config.Faults) land on that path too, in
// the flights the executors run. Robustness is the headline, in four layers:
//
//   - Admission control: a bounded job queue, a per-request memory bound,
//     per-tenant token-bucket quotas and max-inflight caps, and 429/503
//     responses carrying a Retry-After hint whenever a request is shed.
//   - Deadline propagation: a request deadline (X-Deadline-Ms header or
//     deadline_ms body field) flows into the job envelope. A batched task
//     past it is answered unsolved, and a timed-out request abandons its
//     subsolves instead of orphaning them.
//   - Retry with backoff: failed solve attempts are retried under a seeded
//     jittered exponential core.Backoff within the request's deadline and
//     attempt cap, and a per-tenant circuit breaker trips on failed
//     requests and half-opens on a timer.
//   - Drain: Drain (SIGTERM) stops admission, sheds queued jobs, completes
//     inflight ones within a deadline, and leaves the obs recorder ready
//     to flush.
//
// Accounting is exact by construction: every valid request ends in
// exactly one of {completed, shed, failed}, each terminal state
// increments exactly one counter and emits exactly one serve.* terminal
// event, and the fault suite asserts the ledger both ways.
package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pde"
	"repro/internal/rosenbrock"
	"repro/internal/solver"
)

// maxBodyBytes bounds what /solve reads of a request body; a SolveRequest
// is under 200 bytes.
const maxBodyBytes = 4 << 10

// Shed reasons, carried in the response body, the serve.shed event Aux,
// and the fault-suite ledger.
const (
	shedQueueFull = "queue-full"
	shedQuota     = "quota"
	shedInflight  = "inflight"
	shedBreaker   = "breaker"
	shedDraining  = "draining"
)

// Terminal statuses of a request.
const (
	// StatusCompleted marks a request solved.
	StatusCompleted = "completed"
	// Deprecated: StatusDegraded is never produced — the degraded path lost
	// its A/B (EXPERIMENTS.md "One path"); it stays while benchmark/ names it.
	StatusDegraded = "degraded"
	// StatusShed marks a request refused by admission control or drain.
	StatusShed = "shed"
	// StatusFailed marks a request that ended in permanent failure.
	StatusFailed = "failed"
)

// Config parameterizes a Server. The zero value is usable: withDefaults
// fills every field with service-grade defaults.
type Config struct {
	// QueueDepth bounds the admission queue; a full queue sheds with 503.
	QueueDepth int
	// Executors sizes the one pool: the goroutines that run requests and
	// every batched subsolve. 0 means max(2, GOMAXPROCS).
	Executors int

	// TenantRate is the per-tenant token refill rate per second; <= 0
	// disables rate limiting.
	TenantRate float64
	// TenantBurst is the token-bucket capacity.
	TenantBurst float64
	// MaxInflight caps concurrently admitted requests per tenant (0 = off).
	MaxInflight int
	// BreakerThreshold is the consecutive failed requests that trip a
	// tenant's circuit breaker (0 disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before
	// half-opening for a single probe.
	BreakerCooldown time.Duration

	// Attempts is the solve attempts per request (>= 1); attempts after
	// the first are paced by Backoff. A request whose every attempt failed
	// counts against the tenant's breaker.
	Attempts int
	// DefaultDeadline applies when a request carries no deadline.
	DefaultDeadline time.Duration
	// MaxLevel rejects requests refined beyond what the service is sized
	// for (400, before admission control).
	MaxLevel int

	// Deprecated: BatchWindow is ignored; it stays while benchmark/ names it.
	BatchWindow time.Duration
	// Deprecated: BatchWorkers is ignored; it stays while benchmark/ names it.
	BatchWorkers int
	// CacheEntries bounds the solver cache (warm Disc+Workspace pairs).
	CacheEntries int
	// CacheBytes is the approximate byte budget of the solver cache, and with
	// it the largest grid a request may ask for: one whose entry the cache
	// could never hold is refused with 400 (gridBytes).
	CacheBytes int64

	// Backoff paces the retries of failed attempts. Nil gets a seeded
	// default.
	Backoff *core.Backoff
	// Faults, when non-nil, draws one fault for every flight an executor
	// runs (batcher.runTask) — the -faults server flag and the fault suite.
	Faults *core.FaultInjector
	// Obs receives the service's events and metrics; nil allocates a
	// recorder (a long-running service wants its /metrics live).
	Obs *obs.Recorder
	// Now is the clock, for tests; nil means time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Executors <= 0 {
		c.Executors = max(2, runtime.GOMAXPROCS(0))
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = 8
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.Attempts < 1 {
		c.Attempts = 2
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxLevel <= 0 {
		c.MaxLevel = 6
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 64
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.Backoff == nil {
		c.Backoff = core.NewBackoff(1, core.DefaultBackoffBase, core.DefaultBackoffMax)
	}
	if c.Obs == nil {
		c.Obs = obs.NewRecorder(0)
		c.Obs.AppName = "solved"
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// SolveRequest is the JSON body of POST /solve. The X-Tenant and
// X-Deadline-Ms headers override the corresponding fields.
type SolveRequest struct {
	// Tenant identifies the quota/breaker bucket; empty means "anon".
	Tenant string `json:"tenant,omitempty"`
	// Root is the refinement level of the coarsest grid (argv[1]).
	Root int `json:"root"`
	// Level is the additional refinement above root (argv[2]).
	Level int `json:"level"`
	// Tol is the integrator tolerance (argv[3]); 0 means 1e-3.
	Tol float64 `json:"tol,omitempty"`
	// Solver selects the inner linear solver: "bicgstab" (default) or
	// "ilu".
	Solver string `json:"solver,omitempty"`
	// DeadlineMs is the request deadline in milliseconds; 0 takes the
	// server's DefaultDeadline; one that is negative or beyond a
	// time.Duration is refused (400).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// SolveResponse is the JSON body of every /solve response, success or not.
type SolveResponse struct {
	// ID is the server-assigned request ID (events carry the same ID).
	ID int64 `json:"id"`
	// Status is one of completed, shed, failed.
	Status string `json:"status"`
	// Reason qualifies shed and failed statuses (quota, queue-full,
	// breaker, inflight, draining; deadline, error).
	Reason string `json:"reason,omitempty"`
	// Tenant echoes the quota bucket the request was accounted to.
	Tenant string `json:"tenant"`
	// Grids is the sparse-grid family size solved.
	Grids int `json:"grids,omitempty"`
	// MaxU is the max-norm of the combined solution.
	MaxU float64 `json:"max_u,omitempty"`
	// Flops is the floating-point work of all subsolves.
	Flops int64 `json:"flops,omitempty"`
	// Attempts is the solve attempts consumed.
	Attempts int `json:"attempts,omitempty"`
	// Failures is the attempts that failed.
	Failures int `json:"failures,omitempty"`
	// ElapsedMs is admission-to-terminal latency in milliseconds.
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
	// RetryAfterMs duplicates the Retry-After header for JSON clients.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// job is one admitted request on its way through the queue and executors.
type job struct {
	id       int64
	tenant   string
	req      SolveRequest
	lin      rosenbrock.LinearSolver
	deadline time.Time
	admitted time.Time
	done     chan outcome
	fam      *family // the first attempt's, fanned out at admission
}

// outcome is the single terminal result of an admitted job, delivered on
// job.done exactly once.
type outcome struct {
	status     string
	httpStatus int
	reason     string
	retryAfter time.Duration
	out        *solver.Output
	attempts   int
	failures   int
	elapsed    time.Duration
}

// Server is the multi-tenant solve service. Create with NewServer, start
// the executors with Start, expose Handler over net/http, stop with Drain.
type Server struct {
	cfg     Config
	rec     *obs.Recorder
	now     func() time.Time
	problem *pde.Problem

	tenants    *tenants
	batch      *batcher
	queue      chan *job
	quit       chan struct{}
	admitMu    sync.RWMutex
	draining   atomic.Bool
	drained    chan struct{} // closed when Drain finishes
	drainClean bool          // valid after drained closes
	jobsWG     sync.WaitGroup
	execWG     sync.WaitGroup
	nextID     atomic.Int64

	cRequests, cShed, cCompleted, cFailed, cRetries *obs.Counter
	gQueue, gInflight                               *obs.Gauge
	hRequest, hWait                                 *obs.Histogram
}

// NewServer builds a Server from cfg (zero-value fields take defaults).
// Executors are not running until Start.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	rec := cfg.Obs
	s := &Server{
		cfg:     cfg,
		rec:     rec,
		now:     cfg.Now,
		problem: pde.PaperProblem(),
		queue:   make(chan *job, cfg.QueueDepth),
		quit:    make(chan struct{}),
		drained: make(chan struct{}),

		cRequests:  rec.Counter("serve.requests"),
		cShed:      rec.Counter("serve.shed"),
		cCompleted: rec.Counter("serve.completed"),
		cFailed:    rec.Counter("serve.failed"),
		cRetries:   rec.Counter("serve.retries"),
		gQueue:     rec.Gauge("serve.queue.depth"),
		gInflight:  rec.Gauge("serve.inflight"),
		hRequest:   rec.Histogram("serve.request.us"),
		hWait:      rec.Histogram("serve.queue.wait.us"),
	}
	s.tenants = newTenants(cfg, s.now, rec)
	s.batch = newBatcher(rec, newSolverCache(cfg, rec, s.problem), cfg.Faults, s.now)
	return s
}

// Recorder returns the service's observability recorder (for flushing
// timelines and metrics on shutdown).
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// Handler returns the service's HTTP surface: POST /solve, GET /metrics,
// GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// handleSolve is the job API: parse, validate, admit, enqueue, wait for
// the terminal outcome. Every valid request increments serve.requests and
// ends in exactly one terminal counter.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req SolveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if h := r.Header.Get("X-Tenant"); h != "" {
		req.Tenant = h
	}
	if req.Tenant == "" {
		req.Tenant = "anon"
	}
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad X-Deadline-Ms header")
			return
		}
		req.DeadlineMs = ms
	}
	// A negative deadline has passed on arrival, and one beyond a
	// time.Duration would wrap to an arbitrary one.
	if req.DeadlineMs < 0 || req.DeadlineMs > math.MaxInt64/int64(time.Millisecond) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("deadline of %d ms out of range", req.DeadlineMs))
		return
	}
	if req.Tol == 0 {
		req.Tol = 1e-3
	}
	lin, err := parseSolver(req.Solver)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Level > s.cfg.MaxLevel {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("level %d beyond service cap %d", req.Level, s.cfg.MaxLevel))
		return
	}
	if perr := (solver.Params{Root: req.Root, Level: req.Level, Tol: req.Tol}).Validate(); perr != nil {
		httpError(w, http.StatusBadRequest, perr.Error())
		return
	}
	// An entry the cache could never hold is not a request this service is
	// sized for.
	if gridBytes(req.Root, req.Level) > s.cfg.CacheBytes {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("root %d level %d: largest grid beyond the service's %d-byte solver cache", req.Root, req.Level, s.cfg.CacheBytes))
		return
	}

	id := s.nextID.Add(1)
	s.cRequests.Inc()
	now := s.now()
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMs > 0 {
		deadline = time.Duration(req.DeadlineMs) * time.Millisecond
	}

	// Admission. The read-lock pairs with Drain's write-lock: once Drain
	// holds it, no handler is mid-admission, so no job can slip into the
	// queue after the drain shed-loop ran.
	s.admitMu.RLock()
	if s.draining.Load() {
		s.admitMu.RUnlock()
		s.shedNow(w, id, req.Tenant, shedDraining, http.StatusServiceUnavailable, time.Second)
		return
	}
	ok, reason, retryAfter := s.tenants.admit(req.Tenant)
	if !ok {
		s.admitMu.RUnlock()
		s.shedNow(w, id, req.Tenant, reason, http.StatusTooManyRequests, retryAfter)
		return
	}
	j := &job{
		id: id, tenant: req.Tenant, req: req, lin: lin,
		deadline: now.Add(deadline), admitted: now,
		done: make(chan outcome, 1),
	}
	j.fam = newFamily(j, solver.Params{Root: req.Root, Level: req.Level, Tol: req.Tol})
	fam := j.fam // read before the send: from then on j is its executor's
	s.jobsWG.Add(1)
	select {
	case s.queue <- j:
		depth := len(s.queue)
		s.gQueue.Set(int64(depth))
		s.gInflight.Add(1)
		s.rec.Emit(obs.KServeAccept, j.tenant, "", j.id, int64(depth))
		s.admitMu.RUnlock()
	default:
		s.jobsWG.Done()
		s.tenants.release(req.Tenant)
		s.admitMu.RUnlock()
		s.shedNow(w, id, req.Tenant, shedQueueFull, http.StatusServiceUnavailable, time.Second)
		return
	}

	// Join the flights now; an error (batcher closed) is the executor's to report.
	_ = fam.fanOut(s.batch)
	oc := <-j.done
	writeOutcome(w, j, oc)
}

// shedNow refuses a request before it was enqueued: one serve.shed event,
// one shed counter increment, one 429/503 response with Retry-After.
func (s *Server) shedNow(w http.ResponseWriter, id int64, tenant, reason string, status int, retryAfter time.Duration) {
	s.cShed.Inc()
	s.rec.Emit(obs.KServeShed, tenant, reason, id, 0)
	writeJSON(w, status, retryAfter, SolveResponse{
		ID: id, Status: StatusShed, Reason: reason, Tenant: tenant,
		RetryAfterMs: retryAfter.Milliseconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := s.rec.WriteMetrics(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	tenantCount, inflight := s.tenants.snapshot()
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, 0, struct {
		Status   string `json:"status"`
		Queue    int    `json:"queue"`
		Inflight int    `json:"inflight"`
		Tenants  int    `json:"tenants"`
	}{status, len(s.queue), inflight, tenantCount})
}

// writeOutcome renders an admitted job's terminal outcome.
func writeOutcome(w http.ResponseWriter, j *job, oc outcome) {
	resp := SolveResponse{
		ID: j.id, Status: oc.status, Reason: oc.reason, Tenant: j.tenant,
		Attempts: oc.attempts, Failures: oc.failures,
		ElapsedMs:    float64(oc.elapsed.Microseconds()) / 1e3,
		RetryAfterMs: oc.retryAfter.Milliseconds(),
	}
	if oc.out != nil {
		resp.Grids = len(oc.out.Results)
		resp.MaxU = oc.out.Combined.V.NormInf()
		resp.Flops = oc.out.TotalFlops
	}
	writeJSON(w, oc.httpStatus, oc.retryAfter, resp)
}

func writeJSON(w http.ResponseWriter, status int, retryAfter time.Duration, v any) {
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		secs := int64(retryAfter / time.Second)
		if retryAfter%time.Second != 0 {
			secs++ // ceil: "retry after 0s" would invite an immediate storm
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // response already committed; nothing to do on error
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, 0, struct {
		Error string `json:"error"`
	}{msg})
}

// parseSolver maps the request's solver name onto the Rosenbrock inner
// linear solvers. "gmres" is a deprecated name of "ilu", kept while
// benchmark/ sends it.
func parseSolver(name string) (rosenbrock.LinearSolver, error) {
	switch strings.ToLower(name) {
	case "", "bicgstab":
		return rosenbrock.BiCGStab, nil
	case "ilu", "gmres":
		return rosenbrock.ILU, nil
	}
	return 0, fmt.Errorf("unknown solver %q (want bicgstab or ilu)", name)
}
