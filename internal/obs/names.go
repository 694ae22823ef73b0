package obs

import (
	"fmt"
	"strings"
)

// This file is the single source of truth for the observability name
// taxonomy: the event-kind table and the metric-name table rendered into
// OBSERVABILITY.md (go generate, below) and enforced over the codebase by
// the obsnames analyzer (internal/analysis/passes/obsnames). Editing a
// name or adding a metric happens here; the doc and the checker follow.

//go:generate go run ./gen

// EventDoc documents one row of the event-taxonomy table. A row may cover
// several kinds (begin/end pairs share emitter and payload semantics).
type EventDoc struct {
	// Kinds are the kinds documented by the row.
	Kinds []Kind
	// Emitter names who emits the event.
	Emitter string
	// Payload describes the A, B integer payloads ("—" when unused).
	Payload string
}

// EventDocs is the event taxonomy, one entry per OBSERVABILITY.md row.
// TestEventDocsComplete asserts every Kind appears exactly once.
var EventDocs = []EventDoc{
	{[]Kind{KPoolCreate}, "`core.Master.CreatePool`", "—"},
	{[]Kind{KWorkerCreate}, "coordinator, per `create_worker`", "worker ordinal"},
	{[]Kind{KWorkerDeath}, "protocol wrapper / abandonment, exactly once per worker", "—"},
	{[]Kind{KJobDispatch}, "`core.Pool.dispatch`", "job ID, attempt"},
	{[]Kind{KJobResult}, "`core.Pool.Collect` on an accepted result", "job ID, attempt"},
	{[]Kind{KJobRetry}, "`core.Pool.fail` within the retry budget", "job ID, failed attempt"},
	{[]Kind{KJobAbandon}, "`core.Master.abandon` (deadline expiry / budget stop)", "—"},
	{[]Kind{KJobFailed}, "`core.Pool.fail` on retry exhaustion", "job ID, attempts"},
	{[]Kind{KRendezvousBegin, KRendezvousEnd}, "coordinator", "workers created, deaths counted"},
	{[]Kind{KBudgetExhausted}, "`core.Pool.exhaust`", "failures, budget"},
	{[]Kind{KSubsolveBegin, KSubsolveEnd}, "`solver.timedSubsolve` (workers, `Sequential`, fallback; Actor `exec-<i>` when a `serve` executor ran it as a batched task)", "begin: grid L1, L2; end: flops, steps"},
	{[]Kind{KFallback}, "`solver.Concurrent` on graceful degradation", "job ID, attempts"},
	{[]Kind{KStreamConnect, KStreamBreak}, "`manifold.Connect` / `Stream.Break`", "stream type (0=BK, 1=KK)"},
	{[]Kind{KDeadlineExpired}, "`manifold.Port.ReadWithin` on timeout", "deadline (µs)"},
	{[]Kind{KTaskFork, KTaskAdopt, KTaskReuse, KTaskKill}, "`cluster.Spawner`, virtual time", "task ID, load"},
	{[]Kind{KMachineCrash, KMachineSlow}, "`mwsim` failure plan, virtual time", "slow: factor"},
	{[]Kind{KWorkerLost}, "`mwsim` when a crash takes a worker", "grid L1, L2"},
	{[]Kind{KServeAccept}, "`serve.Server` on admission", "request ID, queue depth"},
	{[]Kind{KServeShed}, "`serve.Server` refusing a request (Aux is the reason)", "request ID"},
	{[]Kind{KServeRetry}, "`serve.Server` retrying a failed attempt after backoff", "request ID, failed attempt"},
	{[]Kind{KServeComplete, KServeFail}, "`serve.Server`, exactly one per admitted request", "request ID, attempts (fail: failures)"},
	{[]Kind{KBreakerTrip, KBreakerProbe, KBreakerClose}, "`serve` tenant circuit breaker (Aux is the tenant)", "trip: consecutive failures"},
	{[]Kind{KDrainBegin, KDrainEnd}, "`serve.Server.Drain` on SIGTERM", "begin: queue depth; end: 1=clean, 0=timeout"},
	{[]Kind{KBatchTask}, "`serve` batcher on a subsolve enqueue that leads a flight and joins the queue (Actor is the signature)", "request ID, queue length"},
	{[]Kind{KBatchCoalesce}, "`serve` batcher on a subsolve enqueue that found its flight — a task of the same signature and tolerance pending or being solved — and rides it instead of joining the queue (Actor is the signature)", "rider's request ID, leader's request ID"},
	{[]Kind{KCacheHit, KCacheMiss}, "`serve` solver cache on checkout, once per flight (Actor is the signature)", "—"},
	{[]Kind{KCacheEvict}, "`serve` solver cache keeping its entry/byte bounds, or (Aux `failed`) dropping the entry a failed subsolve ran on", "evicted entry bytes"},
}

// MetricDoc documents one registered metric name. A `<grid>` segment marks
// a dynamic component (the per-grid metric families built by
// concatenation in solver.timedSubsolve).
type MetricDoc struct {
	// Name is the canonical metric name, with `<grid>` for dynamic
	// segments.
	Name string
	// Type is "counter", "gauge" or "histogram".
	Type string
	// Meaning is the one-line doc rendered into the table.
	Meaning string
}

// MetricDocs is the metric-name taxonomy, one entry per OBSERVABILITY.md
// row. The obsnames analyzer rejects Counter/Gauge/Histogram calls whose
// name does not resolve to one of these.
var MetricDocs = []MetricDoc{
	{"core.job.attempt.us", "histogram", "dispatch-to-accepted-result latency per job"},
	{"core.jobs.outstanding", "gauge", "jobs submitted but not yet resolved"},
	{"serve.requests", "counter", "valid solve requests reaching admission control"},
	{"serve.shed", "counter", "requests refused by admission control or shed during drain"},
	{"serve.completed", "counter", "admitted requests finished successfully"},
	{"serve.failed", "counter", "admitted requests ending in permanent failure (deadline, error)"},
	{"serve.retries", "counter", "serve-level solve attempts retried after a backoff pause"},
	{"serve.queue.depth", "gauge", "jobs admitted and waiting for an executor"},
	{"serve.inflight", "gauge", "requests admitted but not yet terminal"},
	{"serve.request.us", "histogram", "admission-to-terminal latency per admitted request"},
	{"serve.queue.wait.us", "histogram", "admission-to-execution wait per admitted request"},
	{"serve.batch.tasks", "counter", "subsolve tasks entering the cross-request batcher, riders included"},
	{"serve.batch.coalesced", "counter", "subsolve tasks that rode another request's identical subsolve instead of being solved"},
	{"serve.batch.size", "histogram", "Deprecated: never observed; it stays while benchmark/ names it"},
	{"serve.batch.wait.us", "histogram", "enqueue-to-execution wait per batched subsolve, a first attempt's enqueued at admission: the time until any executor was free (a rider: enqueue to answer)"},
	{"serve.cache.hits", "counter", "solver-cache checkouts that found a warm entry"},
	{"serve.cache.misses", "counter", "solver-cache checkouts that built a fresh entry"},
	{"serve.cache.evictions", "counter", "solver-cache entries evicted under the entry/byte bounds or dropped after a failed subsolve"},
	{"serve.cache.entries", "gauge", "solver-cache entries currently parked (checked-out entries excluded)"},
	{"serve.cache.bytes", "gauge", "approximate bytes held by parked solver-cache entries"},
	{"solver.subsolve.<grid>.us", "histogram", "per-grid subsolve duration, e.g. `solver.subsolve.grid(1,2;root=2).us`"},
}

// ProtocolEvents are the canonical manifold event names of the
// master/worker protocol (the paper's §5 vocabulary, internal/core's Ev*
// constants). The obsnames analyzer checks event string literals raised or
// awaited on processes against this list.
var ProtocolEvents = []string{
	"create_pool",
	"create_worker",
	"rendezvous",
	"a_rendezvous",
	"finished",
	"death_worker",
}

// EventNames returns the dotted names of every real Kind ("pool.create" …
// "worker.lost"), in Kind order.
func EventNames() []string {
	names := make([]string, 0, int(kindCount)-1)
	for k := Kind(1); k < kindCount; k++ {
		names = append(names, k.String())
	}
	return names
}

// KnownMetric reports whether a fully-literal metric name is in the
// taxonomy, resolving `<grid>` segments against any single name segment.
func KnownMetric(name string) bool {
	for _, d := range MetricDocs {
		if d.Name == name {
			return true
		}
		prefix, suffix, ok := strings.Cut(d.Name, "<grid>")
		if ok && strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) && len(name) > len(prefix)+len(suffix) {
			return true
		}
	}
	return false
}

// KnownMetricParts reports whether a metric name built by concatenation —
// a constant prefix and suffix around a dynamic middle — matches a
// taxonomy entry with a `<grid>` segment in that position.
func KnownMetricParts(prefix, suffix string) bool {
	for _, d := range MetricDocs {
		p, s, ok := strings.Cut(d.Name, "<grid>")
		if ok && p == prefix && s == suffix {
			return true
		}
	}
	return false
}

// RenderEventTable renders EventDocs as the OBSERVABILITY.md markdown
// table; go generate splices it between the GENERATED markers, and
// TestTablesInSync fails if the file drifts from this rendering.
func RenderEventTable() string {
	var b strings.Builder
	b.WriteString("| Kind | Emitter | A, B |\n|---|---|---|\n")
	for _, d := range EventDocs {
		names := make([]string, len(d.Kinds))
		for i, k := range d.Kinds {
			names[i] = "`" + k.String() + "`"
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", strings.Join(names, " / "), d.Emitter, d.Payload)
	}
	return b.String()
}

// RenderMetricTable renders MetricDocs as the OBSERVABILITY.md markdown
// table.
func RenderMetricTable() string {
	var b strings.Builder
	b.WriteString("| Name | Type | Meaning |\n|---|---|---|\n")
	for _, d := range MetricDocs {
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", d.Name, d.Type, d.Meaning)
	}
	return b.String()
}
