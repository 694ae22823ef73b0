package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/linalg"
	"repro/internal/serve"
	"repro/internal/solver"
)

// runConfig is what the command line fixes for one pass over a workload.
type runConfig struct {
	seed    int64
	seconds float64 // length of the timed window
	short   bool
	trace   bool
	outDir  string
}

// result is the outcome of one pass over one workload.
type result struct {
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Seed      int64    `json:"seed"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"` // the first few, with their shape
	Metrics   []metric `json:"metrics"`
}

// env is a workload being run: its shapes, the references its outputs
// are checked against, and the tally of operations.
type env struct {
	w       workload
	cfg     runConfig
	shapes  []shape
	nproc   int
	refs    map[shape]reference
	wedges  int      // servers replaced because they stopped answering
	notes   []string // lines printed under the metric table
	res     result
	metrics metricSet
}

func newEnv(w workload, cfg runConfig) *env {
	e := &env{w: w, cfg: cfg, shapes: w.shapes, nproc: runtime.GOMAXPROCS(0), metrics: metricSet{}}
	if cfg.short {
		e.shapes = w.short
	}
	e.res = result{Workload: w.name, Trace: cfg.trace, Seed: cfg.seed}
	return e
}

// count tallies one operation; a non-nil err is a failed one.
func (e *env) count(sh shape, err error) {
	e.res.Attempted++
	if err == nil {
		return
	}
	e.res.Failed++
	if len(e.res.Failures) < 8 {
		e.res.Failures = append(e.res.Failures, fmt.Sprintf("%v: %v", sh, err))
	}
}

// batchWindow is the BatchWindow of the server under test.
const batchWindow = 2 * time.Millisecond

func (e *env) window() time.Duration { return time.Duration(e.cfg.seconds * float64(time.Second)) }

// serveConfig is the server under test: the batching service with one
// batch worker and every other field at its default. With two or more
// workers batcher.take can drop a readiness token and strand a batch
// until its requests die on their deadline (README, "Hang and wedge
// guard"); one worker never sweeps a neighbour's deque, so it cannot,
// and no operation of a run fails. MaxLevel is raised only for a shape
// the default would refuse (family-deep's traced pass).
func (e *env) serveConfig(batchWindow time.Duration) serve.Config {
	cfg := serve.Config{BatchWindow: batchWindow, BatchWorkers: 1}
	for _, sh := range e.shapes {
		if sh.Level > 6 {
			cfg.MaxLevel = sh.Level
		}
	}
	return cfg
}

// references computes, per shape, what a correct solve returns.
func (e *env) references() error {
	e.refs = make(map[shape]reference, len(e.shapes))
	for _, sh := range e.shapes {
		p := sh.params()
		p.CoresPerWorker = 1
		out, err := solver.Sequential(p)
		if err != nil {
			return fmt.Errorf("reference for %v: %w", sh, err)
		}
		ref := referenceOf(out)
		if ref.grids != 2*sh.Level+1 {
			return fmt.Errorf("reference for %v: %d grids, want %d", sh, ref.grids, 2*sh.Level+1)
		}
		e.refs[sh] = ref
	}
	return nil
}

// startWarm starts the server under test and sends it each shape once,
// so caches are filled and lazy set-up is done before anything is timed.
func (e *env) startWarm(batchWindow time.Duration) (*service, error) {
	svc, err := startService(e.serveConfig(batchWindow), e.nproc)
	if err != nil {
		return nil, err
	}
	for _, sh := range e.shapes {
		if smp := svc.solve(e.refs, sh, solveRequest(sh)); smp.err != nil {
			svc.stop()
			return nil, fmt.Errorf("warm-up %v: %w", sh, smp.err)
		}
	}
	return svc, nil
}

// newLoop is the workload's closed loop: rounds of nproc requests.
func (e *env) newLoop(tr *tracer) *loop {
	return &loop{refs: e.refs, shapes: e.shapes, seed: e.cfg.seed, clients: e.nproc, tr: tr}
}

// setUp does everything that precedes the timed window and records the
// time of doing it as setup_s: work a change moves out of the window must
// show up here. It sets up three times, and a set-up of milliseconds up
// to fifteen times within a second, so the value is not one scheduler
// hiccup. It returns the last set-up's service (nil for a family
// workload).
func (e *env) setUp() (*service, error) {
	var svc *service
	var times []float64
	start := time.Now()
	for rep := 0; rep < 3 || (rep < 15 && time.Since(start) < time.Second); rep++ {
		if svc != nil {
			svc.stop()
		}
		t0 := time.Now()
		linalg.Calibrate() // once per process, as in cmd/sparsegrid and cmd/solved
		if err := e.references(); err != nil {
			return nil, err
		}
		if e.w.service {
			var err error
			if svc, err = e.startWarm(batchWindow); err != nil {
				return nil, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	e.metrics.low("setup_s", times, 1)
	return svc, nil
}

// endToEndPass measures what a user sees, with tracing off.
func (e *env) endToEndPass() error {
	svc, err := e.setUp()
	if err != nil {
		return err
	}
	if e.w.service {
		return e.serviceWindow(svc)
	}
	return e.familyWindow()
}

// familyWindow alternates the sequential driver on one core and the
// concurrent driver as cmd/sparsegrid configures it, for the length of
// the window and at least three times. A lap is one such pair.
func (e *env) familyWindow() error {
	var ct, rate []float64
	until := time.Now().Add(e.window())
	for pair := 0; pair < 3 || time.Now().Before(until); pair++ {
		for _, sh := range e.shapes {
			t0 := time.Now()
			c, errSt, errCt := e.solvePair(sh)
			e.count(sh, errSt)
			e.count(sh, errCt)
			if errSt == nil && errCt == nil {
				ct = append(ct, c)
				rate = append(rate, 2/time.Since(t0).Seconds())
			}
		}
	}
	e.metrics.quantile("throughput_rps", rate, 1-lowQ, 1)
	e.metrics.low("latency_p10_ms", ct, 1e3)
	return nil
}

// solvePair runs the paper's experiment once on sh, the sequential then
// the concurrent driver, each output checked, and returns the concurrent
// time ct in seconds.
func (e *env) solvePair(sh shape) (ct float64, errSt, errCt error) {
	p := sh.params()
	seq := p
	seq.CoresPerWorker = 1
	out, err := solver.Sequential(seq)
	errSt = e.refs[sh].checkOutput(out, err)
	t0 := time.Now()
	out, err = solver.Concurrent(p)
	ct = time.Since(t0).Seconds()
	errCt = e.refs[sh].checkOutput(out, err)
	return ct, errSt, errCt
}

// serviceWindow drives svc in closed-loop rounds of nproc requests for
// the length of the window, then stops it. A lap is the fewest whole
// rounds that hold whole shuffles of the shapes, so every lap holds the
// same work; the lap the window ends in is only checked.
func (e *env) serviceWindow(svc *service) error {
	l := e.newLoop(nil)
	svc, err := e.drive(l, svc, time.Now().Add(e.window()))
	svc.stop()
	if err != nil {
		return err
	}
	for _, smp := range l.samples {
		e.count(smp.shape, smp.err)
	}
	lap := lcm(len(e.shapes), l.clients)
	var lat, rate []float64
laps:
	for ; len(l.samples) >= lap; l.samples = l.samples[lap:] {
		start, end := l.samples[0].start, l.samples[0].end
		for _, smp := range l.samples[:lap] {
			if smp.err != nil {
				continue laps
			}
			if smp.start.Before(start) {
				start = smp.start
			}
			if smp.end.After(end) {
				end = smp.end
			}
		}
		for _, smp := range l.samples[:lap] {
			lat = append(lat, smp.latency().Seconds())
		}
		rate = append(rate, float64(lap)/end.Sub(start).Seconds())
	}
	if len(rate) == 0 {
		return fmt.Errorf("no lap of %d correct responses in the window", lap)
	}
	e.metrics.quantile("throughput_rps", rate, 1-lowQ, 1)
	e.metrics.low("latency_p10_ms", lat, 1e3)
	return nil
}

func lcm(a, b int) int {
	g, r := a, b
	for r != 0 {
		g, r = r, g%r
	}
	return a / g * b
}

// drive runs the loop against svc and guards against a wedged server:
// when every request of a round dies on its deadline it dumps the
// goroutines, replaces the server with a fresh warm one and carries on
// with the sequence. The requests lost stay failed. It returns the
// service now in use.
func (e *env) drive(l *loop, svc *service, until time.Time) (*service, error) {
	for l.run(svc, until) {
		e.wedges++
		dump := filepath.Join(e.cfg.outDir, "wedge-"+e.w.name+".txt")
		if err := dumpGoroutines(dump); err != nil {
			fmt.Println("wedge dump:", err)
		}
		fmt.Printf("%s: server wedged (a round of %d deadline failures); goroutines in %s; restarting\n", e.w.name, e.nproc, dump)
		svc.stop()
		fresh, err := e.startWarm(batchWindow)
		if err != nil {
			return svc, err
		}
		svc = fresh
	}
	return svc, nil
}
