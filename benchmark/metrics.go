package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric of the benchmark: its name, unit and
// direction, and for end-to-end metrics the share of the parent's median
// by which it may get worse before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them (the driver's contract), so each has one definition
// that holds for a library caller and for a service client alike: an
// operation is one solve — a `solver.Sequential` or `solver.Concurrent`
// call on the family workloads, one `POST /solve` on the service ones.
//
// Each is the 10th percentile of its samples, not the median (README,
// "Low percentiles"): the neighbours of the shared hosts this runs on
// slow a core by half for milliseconds to minutes at a time, about half
// of the time, so a median sits between two speeds and follows the
// neighbours, while the low tail is the time the code itself takes.
var endToEnd = []metricDef{
	// Calibration, reference solutions, server start and warm-up, done at
	// least three times.
	{"setup_s", "s", "lower", 0.25},
	// Correct operations per second over a lap: a Sequential and a
	// Concurrent solve on family-*, so a slower st shows here; on serve-*
	// the fewest whole rounds that hold whole shuffles of the shapes.
	{"throughput_rps", "1/s", "higher", 0.25},
	// Time the caller of the concurrent path waits for one solve: the
	// paper's ct on family-*, client-side request latency on serve-*.
	{"latency_p10_ms", "ms", "lower", 0.25},
}

// perLayer lists the single-layer numbers of the traced pass, in the
// order they are printed. They carry no bound. The comment on each row is
// the prediction written down before measuring: which end-to-end metric
// it should move, on which workload (README.md has the full table).
var perLayer = []metricDef{
	{"host.nproc", "count", "higher", 0},      // fingerprint
	{"host.gomaxprocs", "count", "higher", 0}, // fingerprint
	{"host.stream_gbps", "GB/s", "higher", 0}, // denominator of linalg.spmv_bw_share

	{"linalg.spmv_ns_per_nnz", "ns", "lower", 0},       // latency_p10_ms on family-deep and serve-hot; flat on family-wide
	{"linalg.spmv_gbps", "GB/s", "higher", 0},          // computed bytes 12*nnz+24*rows, not measured traffic
	{"linalg.spmv_bw_share", "ratio", "higher", 0},     // spmv_gbps / host.stream_gbps
	{"linalg.dot_ns_per_elem", "ns", "lower", 0},       // as spmv_ns_per_nnz
	{"linalg.krylov_solve_us", "us", "lower", 0},       // throughput_rps everywhere
	{"linalg.krylov_iters", "count", "lower", 0},       // exact; must not move
	{"linalg.shift_update_us", "us", "lower", 0},       // throughput_rps on family-deep
	{"linalg.ilu_factor_us", "us", "lower", 0},         // family-wide, serve-mixed (cache misses); flat on family-deep, serve-hot
	{"linalg.ilu_refactor_us", "us", "lower", 0},       // as ilu_factor_us
	{"linalg.ilu_solve_ns_per_nnz", "ns", "lower", 0},  // as ilu_factor_us
	{"linalg.team_dispatch_us", "us", "lower", 0},      // solver.seq_team_s, latency_p10_ms on family-wide
	{"linalg.team_spmv_speedup", "ratio", "higher", 0}, // as team_dispatch_us
	{"linalg.calib_dispatch_us", "us", "lower", 0},     // fingerprint: explains bimodal runs
	{"linalg.calib_elem_ns", "ns", "lower", 0},         // fingerprint
	{"linalg.parmin_phase", "count", "lower", 0},       // fingerprint: the cut-over calibration chose
	{"linalg.flops", "count", "lower", 0},              // exact; must not move

	{"pde.assemble_s", "s", "lower", 0},   // throughput_rps on family-wide and on serve-mixed (every cache miss); flat on serve-hot
	{"pde.nnz", "count", "lower", 0},      // exact
	{"pde.unknowns", "count", "lower", 0}, // exact

	{"rosenbrock.integrate_s", "s", "lower", 0},   // throughput_rps everywhere
	{"rosenbrock.steps", "count", "lower", 0},     // exact; must not move
	{"rosenbrock.rejected", "count", "lower", 0},  // exact; must not move
	{"rosenbrock.lin_iters", "count", "lower", 0}, // exact; must not move
	{"rosenbrock.us_per_step", "us", "lower", 0},  // as integrate_s

	{"grid.combine_s", "s", "lower", 0}, // serial tail of both drivers; latency_p10_ms on serve-hot

	{"solver.st_s", "s", "lower", 0},             // the paper's st; throughput_rps on family-*
	{"solver.ct_s", "s", "lower", 0},             // the paper's ct; latency_p10_ms on family-*
	{"solver.ct_steal_s", "s", "lower", 0},       // what ct would be under the steal schedule
	{"solver.ct_elastic_s", "s", "lower", 0},     // what ct would be under steal+elastic
	{"solver.seq_team_s", "s", "lower", 0},       // Sequential with its default GOMAXPROCS-wide team
	{"solver.speedup", "ratio", "higher", 0},     // st_s/ct_s; per-layer on purpose
	{"solver.bound_s", "s", "lower", 0},          // max(sum t_g/nproc, max t_g): the schedule-free floor of ct
	{"solver.coord_overhead_s", "s", "lower", 0}, // ct_s - bound_s; latency_p10_ms on family-deep, flat on family-wide
	{"solver.efficiency", "ratio", "higher", 0},  // st_s/(nproc*ct_s)
	{"solver.steals", "count", "lower", 0},       // work-stealing runs only
	{"solver.donations", "count", "lower", 0},    // elastic runs only
	{"solver.resizes", "count", "lower", 0},      // elastic runs only

	{"core.job_roundtrip_us", "us", "lower", 0}, // solver.coord_overhead_s on family-deep
	{"core.workers", "count", "lower", 0},       // exact; equals core.deaths
	{"core.deaths", "count", "lower", 0},        // exact

	{"workmodel.cost_spread", "ratio", "lower", 0}, // max/min over grids of measured t_g / GridWork; 1 is a perfect model
	{"workmodel.lpt_regret", "ratio", "lower", 0},  // makespan of LPT on modelled weights / on measured weights

	{"mwsim.speedup_l15", "ratio", "higher", 0}, // virtual time, exact: the paper's Table-1 row must not move
	{"mwsim.machines_l15", "count", "lower", 0}, // as speedup_l15

	{"serve.server_p50_ms", "ms", "lower", 0},            // latency_p10_ms on serve-*
	{"serve.http_overhead_us", "us", "lower", 0},         // latency_p10_ms on serve-*
	{"serve.solve_floor_ms", "ms", "lower", 0},           // direct solver.Concurrent of the same shapes
	{"serve.overhead_share", "ratio", "lower", 0},        // 1 - solve_floor_ms / mean client latency
	{"serve.queue_wait_p50_us", "us", "lower", 0},        // latency_p10_ms on serve-hot
	{"serve.batch_wait_p50_us", "us", "lower", 0},        // latency_p10_ms on serve-*
	{"serve.mean_batch_size", "count", "higher", 0},      // throughput_rps on serve-hot
	{"serve.batch_flushes", "count", "lower", 0},         // as mean_batch_size
	{"serve.batch_steals", "count", "lower", 0},          // 0 while the server under test runs one batch worker
	{"serve.cache_hit_rate", "ratio", "higher", 0},       // throughput_rps on serve-mixed; flat (1.0) on serve-hot
	{"serve.cache_misses", "count", "lower", 0},          // as cache_hit_rate
	{"serve.latency_p50_ms", "ms", "lower", 0},           // the traced pass's own client latency
	{"serve.latency_p90_ms", "ms", "lower", 0},           // tail; not bounded because it has no meaning on family-*
	{"serve.latency_p99_ms", "ms", "lower", 0},           // tail
	{"serve.latency_max_ms", "ms", "lower", 0},           // tail
	{"serve.shed", "count", "lower", 0},                  // must stay 0
	{"serve.degraded", "count", "lower", 0},              // must stay 0
	{"serve.failed", "count", "lower", 0},                // must stay 0
	{"serve.retries", "count", "lower", 0},               // must stay 0
	{"serve.wedges", "count", "lower", 0},                // must stay 0; see README on batcher.take
	{"serve.nobatch_throughput_rps", "1/s", "higher", 0}, // same requests with BatchWindow 0

	{"obs.emit_off_ns", "ns", "lower", 0},       // must stay a few ns
	{"obs.emit_on_ns", "ns", "lower", 0},        // cost of one recorded event
	{"obs.trace_overhead", "ratio", "lower", 0}, // Concurrent with Params.Obs set / without; must not move latency_p10_ms

	{"trace.coverage", "ratio", "higher", 0}, // sum of span self times / wall of the traced sections
	{"trace.spans", "count", "lower", 0},     // spans written to the trace file
}

// metric is one measured value. N > 0 marks a value that is a quantile
// of N samples, printed with their quartiles.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

func (m metric) String() string {
	s := fmt.Sprintf("%-30s %14.6g %-6s", m.Name, m.Value, m.Unit)
	if m.N > 0 {
		s += fmt.Sprintf(" n=%d q1=%.6g q3=%.6g", m.N, m.Q1, m.Q3)
	}
	return s
}

// metricSet collects the values of one pass by name.
type metricSet map[string]metric

// scalar stores a single value; one that is not a finite number counts
// as not measured.
func (s metricSet) scalar(name string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		s[name] = metric{Name: name, Value: v}
	}
}

// median stores the median of samples, scaled, with quartiles and count;
// no samples is not measured.
func (s metricSet) median(name string, samples []float64, scale float64) {
	s.quantile(name, samples, 0.5, scale)
}

// lowQ is the percentile the end-to-end metrics report.
const lowQ = 0.10

// low stores the lowQ-quantile of samples as median does the median.
func (s metricSet) low(name string, samples []float64, scale float64) {
	s.quantile(name, samples, lowQ, scale)
}

func (s metricSet) quantile(name string, samples []float64, q, scale float64) {
	if len(samples) == 0 {
		return
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s[name] = metric{
		Name: name, Value: quantile(sorted, q) * scale, N: len(samples),
		Q1: quantile(sorted, 0.25) * scale, Q3: quantile(sorted, 0.75) * scale,
	}
}

// ordered returns the values for defs in table order with units filled
// in, and the names defs lists that the pass did not produce.
func (s metricSet) ordered(defs []metricDef) (out []metric, missing []string) {
	for _, d := range defs {
		m, ok := s[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		m.Unit = d.Unit
		out = append(out, m)
	}
	return out, missing
}

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func medianOf(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailPermille are the percentiles a latency report may quote, in
// thousandths so that the sample arithmetic is exact.
var tailPermille = []int{500, 750, 900, 950, 990, 999}

// topPercentile returns the highest of tailPermille, as a percentile,
// that still has at least ten of n samples beyond it, or 0 when none
// has: a percentile resting on fewer samples is one slow request, not a
// tail.
func topPercentile(n int) float64 {
	top := 0.0
	for _, pm := range tailPermille {
		if n*(1000-pm) >= 10*1000 {
			top = float64(pm) / 10
		}
	}
	return top
}
