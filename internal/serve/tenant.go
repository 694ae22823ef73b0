package serve

import (
	"math"
	"sync"
	"time"

	"repro/internal/obs"
)

// tenant is the per-tenant admission state: a token bucket bounding the
// request rate, an inflight counter bounding concurrency, and a circuit
// breaker that stops admitting a tenant whose requests keep failing. All
// fields are guarded by the registry's mutex — tenant decisions are cheap
// and serialized on purpose, so quota, inflight, and breaker transitions
// are atomic with respect to each other.
type tenant struct {
	name string

	// Token bucket: tokens refill at rate per second up to burst.
	tokens   float64
	lastFill time.Time

	// inflight counts requests admitted but not yet terminal.
	inflight int

	// Circuit breaker. state transitions: closed --(threshold consecutive
	// failures)--> open --(cooldown elapses)--> half-open --(probe
	// succeeds)--> closed, or --(probe fails)--> open again.
	breaker       breakerState
	consecFails   int
	openUntil     time.Time
	probeInFlight bool
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// tenants is the registry of per-tenant admission state.
type tenants struct {
	mu   sync.Mutex
	byID map[string]*tenant

	rate      float64       // token refill per second
	burst     float64       // bucket capacity
	maxInFly  int           // per-tenant inflight cap (0 = unlimited)
	threshold int           // consecutive failures tripping the breaker (0 = breaker off)
	cooldown  time.Duration // open duration before a half-open probe

	now func() time.Time
	rec *obs.Recorder
}

func newTenants(cfg Config, now func() time.Time, rec *obs.Recorder) *tenants {
	return &tenants{
		byID:      make(map[string]*tenant),
		rate:      cfg.TenantRate,
		burst:     cfg.TenantBurst,
		maxInFly:  cfg.MaxInflight,
		threshold: cfg.BreakerThreshold,
		cooldown:  cfg.BreakerCooldown,
		now:       now,
		rec:       rec,
	}
}

func (ts *tenants) get(name string) *tenant {
	t, ok := ts.byID[name]
	if !ok {
		t = &tenant{name: name, tokens: ts.burst, lastFill: ts.now()}
		ts.byID[name] = t
	}
	return t
}

// admit runs the per-tenant admission checks in severity order — breaker,
// quota, inflight — and on success charges one token and one inflight
// slot. On refusal it returns the shed reason and the Retry-After hint.
func (ts *tenants) admit(name string) (ok bool, reason string, retryAfter time.Duration) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t := ts.get(name)
	now := ts.now()

	if ts.threshold > 0 {
		switch t.breaker {
		case breakerOpen:
			if now.Before(t.openUntil) {
				return false, shedBreaker, t.openUntil.Sub(now)
			}
			// Cooldown over: half-open, admit exactly one probe.
			t.breaker = breakerHalfOpen
			t.probeInFlight = false
			fallthrough
		case breakerHalfOpen:
			if t.probeInFlight {
				return false, shedBreaker, ts.cooldown
			}
			t.probeInFlight = true
			ts.rec.Emit(obs.KBreakerProbe, "serve", t.name, 0, 0)
		}
	}

	// Refill, then spend one token.
	if ts.rate > 0 {
		t.tokens = math.Min(ts.burst, t.tokens+ts.rate*now.Sub(t.lastFill).Seconds())
		t.lastFill = now
		if t.tokens < 1 {
			t.releaseProbe()
			wait := time.Duration((1 - t.tokens) / ts.rate * float64(time.Second))
			return false, shedQuota, wait
		}
		t.tokens--
	}

	if ts.maxInFly > 0 && t.inflight >= ts.maxInFly {
		t.releaseProbe()
		return false, shedInflight, time.Second
	}
	t.inflight++
	return true, "", 0
}

// releaseProbe undoes a half-open probe reservation when a later admission
// check refuses the request — the shed request never ran, so it must not
// consume the tenant's single probe.
func (t *tenant) releaseProbe() {
	if t.breaker == breakerHalfOpen && t.probeInFlight {
		t.probeInFlight = false
	}
}

// release undoes an admission whose request never ran (queue-full shed,
// drain shed): the inflight slot is freed and a half-open probe reservation
// is returned, without touching the breaker's failure accounting. The spent
// token is not refunded — the tenant did submit the request.
func (ts *tenants) release(name string) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t := ts.get(name)
	if t.inflight > 0 {
		t.inflight--
	}
	t.releaseProbe()
}

// settle records the terminal outcome of an admitted request: it frees the
// inflight slot and advances the breaker. failed marks outcomes that count
// against the breaker (a request whose every attempt failed); successes
// reset it.
func (ts *tenants) settle(name string, failed bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t := ts.get(name)
	if t.inflight > 0 {
		t.inflight--
	}
	if ts.threshold <= 0 {
		return
	}
	now := ts.now()
	if failed {
		t.consecFails++
		if t.breaker == breakerHalfOpen || t.consecFails >= ts.threshold {
			t.breaker = breakerOpen
			t.openUntil = now.Add(ts.cooldown)
			t.probeInFlight = false
			ts.rec.Emit(obs.KBreakerTrip, "serve", t.name, int64(t.consecFails), 0)
		}
		return
	}
	if t.breaker != breakerClosed {
		ts.rec.Emit(obs.KBreakerClose, "serve", t.name, 0, 0)
	}
	t.breaker = breakerClosed
	t.probeInFlight = false
	t.consecFails = 0
}

// snapshot returns the tenant count and total inflight for /healthz.
func (ts *tenants) snapshot() (count, inflight int) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, t := range ts.byID {
		inflight += t.inflight
	}
	return len(ts.byID), inflight
}
