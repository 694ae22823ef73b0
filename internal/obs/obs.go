// Package obs is the observability layer of the reproduction: a
// low-overhead structured event recorder plus a metrics registry, threaded
// through every level of the stack — the IWIM runtime (stream wiring,
// deadline expiries), the master/worker protocol (job dispatch, retries,
// abandonments, rendezvous), the solver (per-grid subsolve timings,
// fallback activations) and the simulated cluster (task-instance and
// machine events in virtual time).
//
// The paper's §6 debugging story hinges on chronological output telling
// "who is printing, what, where and when"; this package produces that
// artifact from the live protocol rather than from scattered prints. Every
// recorded Event can render as a §6 two-line trace.Entry (see TraceEntry
// and the exporters in export.go), so the renovated system's own behaviour
// is inspected with exactly the tooling the paper describes.
//
// Design constraints, in order:
//
//   - Zero overhead when disabled. Every entry point is nil-safe: a nil
//     *Recorder (and the nil metric handles it hands out) turns every call
//     into an immediate return with no allocation, so instrumented hot
//     loops cost nothing in ordinary runs (see BenchmarkEmitDisabled).
//   - Bounded overhead when enabled. Events are fixed-size structs copied
//     into a preallocated ring buffer under a mutex; when the ring is full
//     the oldest event is overwritten and a drop counter increments, so a
//     runaway emitter can never exhaust memory. Emitting with pre-existing
//     strings allocates nothing.
//   - Safe under -race. The ring is mutex-guarded, metric handles use
//     atomics, and per-kind totals are kept inside the ring's critical
//     section.
package obs

import (
	"sync"
	"time"
)

// Kind classifies one recorded event. The taxonomy spans every layer of
// the stack; OBSERVABILITY.md documents each kind and its payload.
type Kind uint8

// The event taxonomy. Kinds are grouped by the subsystem that emits them:
// the master/worker protocol (internal/core), the solver, the IWIM runtime
// (internal/manifold) and the simulated cluster (internal/cluster,
// internal/mwsim).
const (
	// KUnknown is the zero Kind; it is never emitted.
	KUnknown Kind = iota

	// KPoolCreate marks the master raising create_pool (protocol step 3a).
	KPoolCreate
	// KWorkerCreate marks the coordinator creating one worker process
	// (a worker birth); A is the worker's ordinal within the run.
	KWorkerCreate
	// KWorkerDeath marks the single death_worker raise of one worker,
	// whether self-raised on return or raised on its behalf at abandonment.
	KWorkerDeath
	// KJobDispatch marks a job being sent to a freshly created worker;
	// A is the job ID, B the attempt number (1 = first try).
	KJobDispatch
	// KJobResult marks a job's result accepted by the master; A is the job
	// ID, B the attempt that produced it.
	KJobResult
	// KJobRetry marks a failed job being resubmitted to a fresh worker;
	// A is the job ID, B the attempts consumed so far.
	KJobRetry
	// KJobAbandon marks the master giving up on a worker (deadline expiry
	// or budget exhaustion): death_worker is raised on the worker's behalf.
	KJobAbandon
	// KJobFailed marks a job that exhausted its retry budget; A is the job
	// ID, B the total attempts.
	KJobFailed
	// KRendezvousBegin marks the master raising rendezvous; A is the number
	// of workers created in the pool, B the deaths already counted.
	KRendezvousBegin
	// KRendezvousEnd marks the coordinator acknowledging the rendezvous
	// with a_rendezvous; A is the workers created, B the deaths counted —
	// a correct barrier always ends with A == B.
	KRendezvousEnd
	// KBudgetExhausted marks the run-level failure budget being spent;
	// A is the failure count, B the budget.
	KBudgetExhausted

	// KSubsolveBegin marks one subsolve starting; Aux is the grid, A its
	// level.
	KSubsolveBegin
	// KSubsolveEnd marks one subsolve finishing; Aux is the grid, A the
	// floating-point operations spent, B the integrator steps taken.
	KSubsolveEnd
	// KFallback marks a job that exhausted its retries being recomputed
	// master-locally (graceful degradation); Aux is the grid.
	KFallback

	// KStreamConnect marks a stream being wired between two ports; Aux is
	// the sink, A the stream type (0 = BK, 1 = KK).
	KStreamConnect
	// KStreamBreak marks a stream broken at its source (BK dismantling).
	KStreamBreak
	// KDeadlineExpired marks a deadline-aware port read timing out; A is
	// the deadline in microseconds.
	KDeadlineExpired

	// KMachineCrash marks a simulated machine dying at the event's virtual
	// time, taking its task instances and in-flight workers with it.
	KMachineCrash
	// KMachineSlow marks a simulated machine entering degraded speed; A is
	// the integral slowdown factor.
	KMachineSlow
	// KTaskFork marks a fresh task instance forked on a machine; A is the
	// task-instance ID, B the initial load. Its message contains "Welcome"
	// so trace.MachineEbbFlow reconstructs Figure 1 from a live trace.
	KTaskFork
	// KTaskAdopt marks an externally created task instance (the start-up
	// task housing the master) being registered; A is the instance ID.
	KTaskAdopt
	// KTaskReuse marks a perpetual task instance welcoming a new worker;
	// A is the instance ID, B its new load.
	KTaskReuse
	// KTaskKill marks a task instance dying (worker exit, idle reaping,
	// retirement, or host crash); A is the instance ID. Its message
	// contains "Bye" for trace.MachineEbbFlow.
	KTaskKill
	// KWorkerLost marks a simulated worker that died with its crashed
	// machine, observed by the master after the detection latency.
	KWorkerLost

	// KServeAccept marks a solve request admitted past admission control
	// into the service queue; A is the request ID, B the queue depth after
	// the enqueue.
	KServeAccept
	// KServeShed marks a request refused by admission control or during
	// drain (tenant over quota, queue full, breaker open, draining); Aux is
	// the shed reason, A the request ID.
	KServeShed
	// KServeRetry marks a serve-level retry of a failed solve attempt after
	// a backoff pause; A is the request ID, B the attempt just failed.
	KServeRetry
	// KServeComplete marks an admitted request finishing successfully; A is
	// the request ID, B the attempts used.
	KServeComplete
	// KServeFail marks an admitted request ending in permanent failure
	// (deadline passed, or every attempt failed); Aux is the reason, A the
	// request ID, B the failed attempts.
	KServeFail
	// KBreakerTrip marks a tenant circuit breaker opening after its
	// consecutive-failure threshold; Aux is the tenant, A the failures.
	KBreakerTrip
	// KBreakerProbe marks a half-open breaker admitting one probe request;
	// Aux is the tenant.
	KBreakerProbe
	// KBreakerClose marks a breaker closing after a successful probe; Aux
	// is the tenant.
	KBreakerClose
	// KDrainBegin marks the service entering drain: admission stops, queued
	// jobs are shed, inflight jobs run to completion; A is the queue depth.
	KDrainBegin
	// KDrainEnd marks the drain finishing; A is 1 when every inflight job
	// completed within the drain deadline, 0 on timeout.
	KDrainEnd

	// KBatchTask marks one subsolve task entering the cross-request
	// batcher's queue; Actor is the problem signature, A the request ID, B
	// the queue length after the enqueue.
	KBatchTask
	// KBatchCoalesce marks one subsolve task that joined a flight — a task of
	// the same signature and tolerance already pending or being solved —
	// instead of the queue: it is answered with that task's result. Actor is
	// the problem signature, A the rider's request ID, B the leader's.
	KBatchCoalesce
	// KCacheHit marks a solver-cache checkout that found a warm entry;
	// Actor is the problem signature.
	KCacheHit
	// KCacheMiss marks a solver-cache checkout that had to build a fresh
	// entry; Actor is the problem signature.
	KCacheMiss
	// KCacheEvict marks an entry evicted to keep the cache within its
	// entry/byte bounds, or (Aux "failed") dropped because a subsolve failed
	// on it; Actor is the evicted signature, A the entry's approximate bytes.
	KCacheEvict

	kindCount // number of kinds; keep last
)

var kindNames = [...]string{
	KUnknown:         "unknown",
	KPoolCreate:      "pool.create",
	KWorkerCreate:    "worker.create",
	KWorkerDeath:     "worker.death",
	KJobDispatch:     "job.dispatch",
	KJobResult:       "job.result",
	KJobRetry:        "job.retry",
	KJobAbandon:      "job.abandon",
	KJobFailed:       "job.failed",
	KRendezvousBegin: "rendezvous.begin",
	KRendezvousEnd:   "rendezvous.end",
	KBudgetExhausted: "budget.exhausted",
	KSubsolveBegin:   "subsolve.begin",
	KSubsolveEnd:     "subsolve.end",
	KFallback:        "subsolve.fallback",
	KStreamConnect:   "stream.connect",
	KStreamBreak:     "stream.break",
	KDeadlineExpired: "deadline.expired",
	KMachineCrash:    "machine.crash",
	KMachineSlow:     "machine.slow",
	KTaskFork:        "task.fork",
	KTaskAdopt:       "task.adopt",
	KTaskReuse:       "task.reuse",
	KTaskKill:        "task.kill",
	KWorkerLost:      "worker.lost",
	KServeAccept:     "serve.accept",
	KServeShed:       "serve.shed",
	KServeRetry:      "serve.retry",
	KServeComplete:   "serve.complete",
	KServeFail:       "serve.fail",
	KBreakerTrip:     "serve.breaker.trip",
	KBreakerProbe:    "serve.breaker.probe",
	KBreakerClose:    "serve.breaker.close",
	KDrainBegin:      "serve.drain.begin",
	KDrainEnd:        "serve.drain.end",
	KBatchTask:       "serve.batch.task",
	KBatchCoalesce:   "serve.batch.coalesce",
	KCacheHit:        "serve.cache.hit",
	KCacheMiss:       "serve.cache.miss",
	KCacheEvict:      "serve.cache.evict",
}

// String returns the dotted event name, e.g. "job.dispatch".
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// source maps a kind to the source file that emits it, standing in for the
// "source file and line" slot of the paper's §6 label (a single-binary Go
// run has no per-task source files, but the slot keeps traces greppable).
func (k Kind) source() string {
	switch k {
	case KPoolCreate, KJobDispatch, KJobResult, KJobRetry, KJobFailed, KBudgetExhausted:
		return "pool.go"
	case KWorkerCreate, KWorkerDeath, KJobAbandon, KRendezvousBegin, KRendezvousEnd:
		return "protocol.go"
	case KSubsolveBegin, KSubsolveEnd, KFallback:
		return "solver.go"
	case KStreamConnect, KStreamBreak, KDeadlineExpired:
		return "stream.go"
	case KMachineCrash, KMachineSlow, KWorkerLost:
		return "mwsim.go"
	case KTaskFork, KTaskAdopt, KTaskReuse, KTaskKill:
		return "cluster.go"
	case KServeAccept, KServeShed, KServeRetry, KServeComplete, KServeFail,
		KBreakerTrip, KBreakerProbe, KBreakerClose, KDrainBegin, KDrainEnd:
		return "serve.go"
	case KBatchTask, KBatchCoalesce:
		return "batch.go"
	case KCacheHit, KCacheMiss, KCacheEvict:
		return "cache.go"
	}
	return "obs.go"
}

// Event is one recorded occurrence. Events are fixed-size values: the
// string fields reference pre-existing names (process, machine, grid), so
// emitting one allocates nothing beyond the ring slot it overwrites.
type Event struct {
	// Seq is the 1-based emission sequence number across the run; drops
	// never renumber surviving events.
	Seq uint64
	// Us is the timestamp in microseconds since the recorder's epoch —
	// wall-clock microseconds for live runs, virtual-time microseconds for
	// simulated ones (EmitAt).
	Us int64
	// Kind classifies the event.
	Kind Kind
	// Host is the machine the event happened on; empty means the local
	// process ("localhost" in trace output).
	Host string
	// Actor is the process, worker or subsystem the event belongs to.
	Actor string
	// Aux carries a kind-specific secondary name (target port, grid, ...).
	Aux string
	// A and B are kind-specific numeric payloads (job IDs, attempt counts,
	// durations); see the Kind constants.
	A, B int64
}

// Recorder is the run-wide event sink: a preallocated ring buffer of
// Events plus a metrics registry. The zero of *Recorder (nil) is a valid,
// permanently disabled recorder: every method is nil-safe and free.
type Recorder struct {
	// AppName labels trace output (the paper's task-name slot, e.g.
	// "mainprog"); empty renders as "run".
	AppName string
	// Epoch is the Unix-seconds base added to event times when rendering
	// paper-style absolute timestamps. NewRecorder sets it to the creation
	// time; set it to PaperEpoch for output resembling the paper's.
	Epoch int64

	start time.Time

	mu      sync.Mutex
	ring    []Event
	head    int // index of the oldest event
	n       int // events currently stored
	seq     uint64
	dropped uint64
	kinds   [kindCount]uint64

	metrics registry
}

// PaperEpoch is the Unix-seconds timestamp of the paper's §6 output
// (Mon Mar 17 2003, bumpa.sen.cwi.nl), for deterministic trace rendering.
const PaperEpoch = 1048087412

// DefaultRingCap is the ring capacity used when NewRecorder is given a
// non-positive one. At 64 bytes an Event, the default ring holds the full
// trace of any paper-scale run in a few MiB.
const DefaultRingCap = 1 << 16

// NewRecorder creates an enabled recorder with a ring of the given
// capacity (DefaultRingCap if cap <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	now := time.Now()
	return &Recorder{
		start: now,
		Epoch: now.Unix(),
		ring:  make([]Event, capacity),
	}
}

// Enabled reports whether the recorder records anything; it is the nil
// check instrumented code uses before building event strings.
func (r *Recorder) Enabled() bool { return r != nil }

// Emit records one event stamped with the wall-clock time since the
// recorder was created. It is safe from any goroutine and a no-op on a nil
// recorder.
//
//vetsparse:allocfree
func (r *Recorder) Emit(k Kind, actor, aux string, a, b int64) {
	if r == nil {
		return
	}
	r.push(Event{Us: time.Since(r.start).Microseconds(), Kind: k, Actor: actor, Aux: aux, A: a, B: b})
}

// EmitAt records one event with an explicit timestamp (microseconds since
// the epoch) and host — the entry point for virtual-time emitters like the
// cluster simulator. No-op on a nil recorder.
//
//vetsparse:allocfree
func (r *Recorder) EmitAt(us int64, k Kind, host, actor, aux string, a, b int64) {
	if r == nil {
		return
	}
	r.push(Event{Us: us, Kind: k, Host: host, Actor: actor, Aux: aux, A: a, B: b})
}

//vetsparse:allocfree
func (r *Recorder) push(e Event) {
	r.mu.Lock()
	r.seq++
	e.Seq = r.seq
	if int(e.Kind) < len(r.kinds) {
		r.kinds[e.Kind]++
	}
	if r.n < len(r.ring) {
		r.ring[(r.head+r.n)%len(r.ring)] = e
		r.n++
	} else {
		// Full: overwrite the oldest event and count the drop, so the ring
		// always holds the most recent window of the run.
		r.ring[r.head] = e
		r.head = (r.head + 1) % len(r.ring)
		r.dropped++
	}
	r.mu.Unlock()
}

// Events returns a copy of the buffered events in emission order (oldest
// first). Nil recorders return nil.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.ring[(r.head+i)%len(r.ring)]
	}
	return out
}

// Len returns the number of events currently buffered.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Emitted returns the total number of events emitted, drops included.
func (r *Recorder) Emitted() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Dropped returns how many events were overwritten because the ring was
// full. The per-kind totals (KindCount) are unaffected by drops.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// KindCount returns the total number of events of kind k emitted over the
// run — a drop-proof tally, so protocol accounting (workers created,
// deaths, retries) can be cross-checked against the run's Stats exactly.
func (r *Recorder) KindCount(k Kind) uint64 {
	if r == nil || int(k) >= int(kindCount) {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.kinds[k]
}

// Counter returns the named counter handle, registering it on first use.
// Nil recorders return a nil handle whose methods are free no-ops.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.metrics.counter(name)
}

// Gauge returns the named gauge handle, registering it on first use.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.metrics.gauge(name)
}

// Histogram returns the named duration histogram handle, registering it on
// first use.
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.metrics.histogram(name)
}
