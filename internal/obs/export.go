package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/trace"
)

// Message renders the event's human-readable payload — the part after the
// "->" of a §6 trace line. Task fork/adopt messages contain "Welcome" and
// task kills "Bye", so trace.MachineEbbFlow reconstructs the paper's
// Figure 1 directly from a live trace.
func (e Event) Message() string {
	switch e.Kind {
	case KPoolCreate:
		return "create_pool"
	case KWorkerCreate:
		return fmt.Sprintf("create_worker %s (worker %d)", e.Actor, e.A)
	case KWorkerDeath:
		return fmt.Sprintf("death_worker %s", e.Actor)
	case KJobDispatch:
		return fmt.Sprintf("dispatch job %d attempt %d to %s", e.A, e.B, e.Actor)
	case KJobResult:
		return fmt.Sprintf("result of job %d attempt %d from %s", e.A, e.B, e.Actor)
	case KJobRetry:
		return fmt.Sprintf("retry job %d after %d attempts", e.A, e.B)
	case KJobAbandon:
		return fmt.Sprintf("abandon %s", e.Actor)
	case KJobFailed:
		return fmt.Sprintf("job %d failed permanently after %d attempts", e.A, e.B)
	case KRendezvousBegin:
		return fmt.Sprintf("rendezvous: %d workers, %d deaths counted", e.A, e.B)
	case KRendezvousEnd:
		return fmt.Sprintf("a_rendezvous: %d workers, %d deaths", e.A, e.B)
	case KBudgetExhausted:
		return fmt.Sprintf("failure budget exhausted: %d failures > %d", e.A, e.B)
	case KSubsolveBegin:
		return fmt.Sprintf("subsolve %s begin", e.Aux)
	case KSubsolveEnd:
		return fmt.Sprintf("subsolve %s end after %d us", e.Aux, e.B)
	case KFallback:
		return fmt.Sprintf("fallback: master recomputes %s locally", e.Aux)
	case KStreamConnect:
		t := "BK"
		if e.A == 1 {
			t = "KK"
		}
		return fmt.Sprintf("stream %s %s to %s", t, e.Actor, e.Aux)
	case KStreamBreak:
		return fmt.Sprintf("stream broken at %s", e.Actor)
	case KDeadlineExpired:
		return fmt.Sprintf("deadline expired on %s after %d us", e.Actor, e.A)
	case KMachineCrash:
		return "machine crashed"
	case KMachineSlow:
		return fmt.Sprintf("machine slowed by factor %d", e.A)
	case KTaskFork:
		return fmt.Sprintf("Welcome (fork task %d, load %d)", e.A, e.B)
	case KTaskAdopt:
		return fmt.Sprintf("Welcome (adopt task %d)", e.A)
	case KTaskReuse:
		return fmt.Sprintf("reuse task %d, load %d", e.A, e.B)
	case KTaskKill:
		return fmt.Sprintf("Bye (task %d)", e.A)
	case KWorkerLost:
		return fmt.Sprintf("worker %s lost with its machine", e.Actor)
	case KServeAccept:
		return fmt.Sprintf("accept request %d (queue depth %d)", e.A, e.B)
	case KServeShed:
		return fmt.Sprintf("shed request %d: %s", e.A, e.Aux)
	case KServeRetry:
		return fmt.Sprintf("retry request %d after attempt %d", e.A, e.B)
	case KServeComplete:
		return fmt.Sprintf("request %d completed after %d attempts", e.A, e.B)
	case KServeFail:
		return fmt.Sprintf("request %d failed (%s) with %d failed attempts", e.A, e.Aux, e.B)
	case KBreakerTrip:
		return fmt.Sprintf("breaker open for tenant %s after %d consecutive failures", e.Aux, e.A)
	case KBreakerProbe:
		return fmt.Sprintf("breaker half-open for tenant %s: probe admitted", e.Aux)
	case KBreakerClose:
		return fmt.Sprintf("breaker closed for tenant %s", e.Aux)
	case KDrainBegin:
		return fmt.Sprintf("drain begin: %d queued jobs to shed", e.A)
	case KDrainEnd:
		if e.A == 1 {
			return "drain end: all inflight jobs completed"
		}
		return "drain end: timeout with inflight jobs remaining"
	case KBatchTask:
		return fmt.Sprintf("batch %s: task of request %d enqueued (%d queued)", e.Actor, e.A, e.B)
	case KBatchCoalesce:
		return fmt.Sprintf("batch %s: task of request %d rides the flight of request %d", e.Actor, e.A, e.B)
	case KCacheHit:
		return fmt.Sprintf("cache hit %s", e.Actor)
	case KCacheMiss:
		return fmt.Sprintf("cache miss %s", e.Actor)
	case KCacheEvict:
		return fmt.Sprintf("cache evict %s (%d bytes)", e.Actor, e.A)
	}
	return e.Kind.String()
}

// TraceEntry bridges the live event to the paper's §6 two-line format: the
// host/task/process label, the (sec, usec) timestamp, the task name, the
// acting manifold, a source-file slot and the message. app is the
// application name (the paper's "mainprog"), epoch the Unix-seconds base.
func (e Event) TraceEntry(app string, epoch int64) trace.Entry {
	host := e.Host
	if host == "" {
		host = "localhost"
	}
	if app == "" {
		app = "run"
	}
	actor := e.Actor
	if actor == "" {
		actor = e.Kind.String()
	}
	return trace.Entry{
		Host:   host,
		TaskID: 1, // a single-binary run is one task instance
		ProcID: int(e.Seq),
		Sec:    epoch + e.Us/1e6,
		Usec:   e.Us % 1e6,
		Task:   app,
		// The manifold-name slot names the acting process; the paper's own
		// output uses the same slot for "Master(port in)".
		Manifold: actor,
		File:     e.Kind.source(),
		Line:     100 + int(e.Kind),
		Msg:      e.Message(),
	}
}

// WriteTrace renders every buffered event in the paper's chronological
// two-line format, ordered by the integer (Sec, Usec) pair. If events were
// dropped, a header line says how many.
func (r *Recorder) WriteTrace(w io.Writer) error {
	if r == nil {
		return nil
	}
	events := r.Events()
	entries := make([]trace.Entry, len(events))
	for i, e := range events {
		entries[i] = e.TraceEntry(r.AppName, r.Epoch)
	}
	trace.SortEntries(entries)
	if d := r.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "# obs: ring full, %d oldest events dropped\n", d); err != nil {
			return err
		}
	}
	for _, e := range entries {
		if _, err := fmt.Fprintln(w, e.Format()); err != nil {
			return err
		}
	}
	return nil
}

// timelineRecord is the JSON shape of one exported event.
type timelineRecord struct {
	Seq   uint64 `json:"seq"`
	Us    int64  `json:"us"`
	T     string `json:"t"` // human-readable seconds, e.g. "12.345678"
	Kind  string `json:"kind"`
	Host  string `json:"host,omitempty"`
	Actor string `json:"actor,omitempty"`
	Aux   string `json:"aux,omitempty"`
	A     int64  `json:"a,omitempty"`
	B     int64  `json:"b,omitempty"`
	Msg   string `json:"msg"`
}

// WriteJSONL exports the buffered events as a JSON-lines timeline, one
// event per line in chronological order, followed by a summary record
// (kind "obs.summary") carrying the emitted/dropped totals. This is the
// machine-readable artifact CI uploads from fault-stress runs.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, e := range r.Events() {
		rec := timelineRecord{
			Seq:   e.Seq,
			Us:    e.Us,
			T:     fmt.Sprintf("%d.%06d", e.Us/1e6, e.Us%1e6),
			Kind:  e.Kind.String(),
			Host:  e.Host,
			Actor: e.Actor,
			Aux:   e.Aux,
			A:     e.A,
			B:     e.B,
			Msg:   e.Message(),
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	summary := struct {
		Kind    string `json:"kind"`
		Emitted uint64 `json:"emitted"`
		Dropped uint64 `json:"dropped"`
	}{"obs.summary", r.Emitted(), r.Dropped()}
	return enc.Encode(summary)
}

// WriteMetrics prints the per-run metrics summary: the drop-proof
// per-kind event totals, every registered counter and gauge, and every
// duration histogram with count/min/mean/p50/p90/p99/max in microseconds.
func (r *Recorder) WriteMetrics(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	b.WriteString("# events (total emitted; ring drops do not affect these)\n")
	r.mu.Lock()
	kinds := r.kinds
	emitted, dropped := r.seq, r.dropped
	r.mu.Unlock()
	for k := Kind(1); k < kindCount; k++ {
		if kinds[k] == 0 {
			continue
		}
		fmt.Fprintf(&b, "event   %-28s %d\n", k.String(), kinds[k])
	}
	fmt.Fprintf(&b, "event   %-28s %d\n", "total", emitted)
	if dropped > 0 {
		fmt.Fprintf(&b, "event   %-28s %d\n", "dropped", dropped)
	}

	r.metrics.mu.Lock()
	counters, gauges, hists := r.metrics.counters, r.metrics.gauges, r.metrics.histograms
	r.metrics.mu.Unlock()
	if len(counters) > 0 {
		b.WriteString("# counters\n")
		for _, name := range sortedKeys(counters) {
			fmt.Fprintf(&b, "counter %-28s %d\n", name, counters[name].Value())
		}
	}
	if len(gauges) > 0 {
		b.WriteString("# gauges\n")
		for _, name := range sortedKeys(gauges) {
			fmt.Fprintf(&b, "gauge   %-28s %d\n", name, gauges[name].Value())
		}
	}
	if len(hists) > 0 {
		b.WriteString("# histograms (microseconds)\n")
		for _, name := range sortedKeys(hists) {
			h := hists[name]
			fmt.Fprintf(&b, "hist    %-28s count=%d min=%d mean=%.0f p50=%d p90=%d p99=%d max=%d\n",
				name, h.Count(), h.Min(), h.Mean(),
				h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
