package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Parent is the ID of
// the span that caused it, -1 for a root; spans of one run or request
// share Req.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
}

// tracer keeps spans in memory until the pass ends. A nil tracer records
// nothing, so the untraced pass runs the same code without the cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// laneUs sums wall time x concurrent lanes of the traced sections,
	// the denominator of coverage.
	laneUs int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, StartUs: now, EndUs: now, Parent: parent, Req: req})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	t.spans[id].EndUs = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the server's
// own elapsed time, placed inside the request that reported it).
func (t *tracer) add(name string, start, end time.Time, parent, req int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Name: name, Parent: parent, Req: req,
		StartUs: start.Sub(t.t0).Microseconds(), EndUs: end.Sub(t.t0).Microseconds(),
	})
}

// section accounts a traced section's wall time on lanes concurrent
// callers.
func (t *tracer) section(wall time.Duration, lanes int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.laneUs += wall.Microseconds() * int64(lanes)
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of it its
// children cover, in microseconds, indexed by span ID.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartUs < kids[b].StartUs })
		covered, upTo := int64(0), s.StartUs
		for _, k := range kids {
			lo, hi := max(k.StartUs, upTo), min(k.EndUs, s.EndUs)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = s.EndUs - s.StartUs - covered
	}
	return self
}

// coverage is the sum of self times over the lane time of the traced
// sections: near 1 when the spans account for what the callers waited.
func (t *tracer) coverage() float64 {
	if t == nil || t.laneUs == 0 {
		return 0
	}
	var sum int64
	for _, us := range selfTimes(t.spans) {
		sum += us
	}
	return float64(sum) / float64(t.laneUs)
}

// selfTimeSummary says where the traced time went: self time summed per
// span name, largest first.
func (t *tracer) selfTimeSummary() string {
	by := make(map[string]int64)
	self := selfTimes(t.spans)
	for _, s := range t.spans {
		by[s.Name] += self[s.ID]
	}
	names := make([]string, 0, len(by))
	for name := range by {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return by[names[a]] > by[names[b]] })
	out := "self time by span:"
	for _, name := range names {
		out += fmt.Sprintf(" %s=%.3fs", name, float64(by[name])/1e6)
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
