// Package solver is the Go port of the paper's legacy application: a
// sequential sparse-grid code for a time-dependent advection-diffusion
// problem. Its structure deliberately mirrors the schematized C program of
// §3 of the paper:
//
//	root  = refinement level of the coarsest grid   (argv[1])
//	level = additional refinement above root        (argv[2])
//	tol   = tolerance of the integrator             (argv[3])
//
//	initialization;
//	for lm = level-1 .. level
//	    for l = 0 .. lm
//	        subsolve(l, lm-l)        // the heavy computational work
//	prolongation onto the finest grid used
//
// Subsolve reads and writes data only of its own grid, which is exactly the
// concurrent property the paper's restructuring exploits; the concurrent
// driver in this package delegates the Subsolve calls to workers
// coordinated by the master/worker protocol of internal/core.
package solver

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/pde"
	"repro/internal/rosenbrock"
)

// DefaultTEnd is the integration horizon of the transport problem.
const DefaultTEnd = 0.25

// DefaultEvalCap bounds the refinement of the evaluation grid the sparse-
// grid combination is prolongated onto, so that paper-scale levels do not
// materialize astronomically fine uniform grids.
const DefaultEvalCap = 5

// Params mirrors the command line of the legacy program.
type Params struct {
	Root  int     // refinement level of the coarsest grid
	Level int     // additional refinement above the root level
	Tol   float64 // integrator tolerance (the paper uses 1.0e-3 and 1.0e-4)

	// TEnd is the end time of the simulation; 0 means DefaultTEnd.
	TEnd float64
	// Problem is the continuous problem; nil means pde.PaperProblem().
	Problem *pde.Problem
	// EvalCap caps the evaluation-grid refinement; 0 means DefaultEvalCap.
	EvalCap int
	// Solver selects the inner linear solver of the Rosenbrock stages;
	// the zero value is BiCGStab.
	Solver rosenbrock.LinearSolver

	// Retries is the per-job retry budget of the concurrent driver: a job
	// whose worker fails (panic, deadline, corrupt result) is resubmitted
	// to a freshly created worker this many times before it is treated as
	// permanently failed.
	Retries int
	// FailureBudget caps the total failed worker attempts tolerated per
	// concurrent run; beyond it the run aborts. 0 means unlimited.
	FailureBudget int
	// WorkerDeadline bounds how long the master waits for any single
	// worker before abandoning it and retrying its job. 0 means no
	// deadline.
	WorkerDeadline time.Duration
	// Backoff, when non-nil, paces job resubmissions of the concurrent
	// driver with seeded jittered exponential delays instead of retrying
	// immediately (see core.Backoff).
	Backoff *core.Backoff
	// Faults, when non-nil, injects worker faults (panic, hang, corrupt)
	// into the concurrent run — tests and the sparsegrid -faults flag.
	Faults *core.FaultInjector
	// Fallback makes jobs that exhaust their retry budget degrade
	// gracefully to a master-local Subsolve call, so the combination still
	// completes bit-for-bit identical to the sequential run.
	Fallback bool
	// Obs, when non-nil, records run events (per-grid subsolve begin/end,
	// fallback activations, protocol events of the concurrent driver) and
	// per-grid subsolve duration histograms; nil (the default) costs
	// nothing.
	Obs *obs.Recorder

	compatParams
}

func (p Params) withDefaults() Params {
	if p.TEnd == 0 {
		p.TEnd = DefaultTEnd
	}
	if p.Problem == nil {
		p.Problem = pde.PaperProblem()
	}
	if p.EvalCap == 0 {
		p.EvalCap = DefaultEvalCap
	}
	return p
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Root < 1 {
		return fmt.Errorf("solver: root %d < 1 (need interior points on the coarsest grid)", p.Root)
	}
	if p.Level < 0 {
		return fmt.Errorf("solver: level %d < 0", p.Level)
	}
	if math.IsNaN(p.Tol) || math.IsInf(p.Tol, 1) || p.Tol <= 0 {
		return fmt.Errorf("solver: tolerance %g must be a finite positive number", p.Tol)
	}
	return nil
}

// EvalGrid returns the uniform grid the combination is evaluated on.
func (p Params) EvalGrid() grid.Grid {
	p = p.withDefaults()
	e := p.Level
	if e > p.EvalCap {
		e = p.EvalCap
	}
	return grid.Grid{Root: p.Root, L1: e, L2: e}
}

// Result is the outcome of one Subsolve call: the interior solution on one
// grid at TEnd, plus the cost statistics that calibrate the work model.
type Result struct {
	Grid  grid.Grid
	U     linalg.Vector
	Stats rosenbrock.Stats
}

// Subsolve performs the heavy computational work on grid g: it assembles
// the advection-diffusion discretization, integrates from 0 to tEnd with
// the adaptive Rosenbrock solver (updating and solving a linear system
// every stage) and returns the interior solution. It touches no state
// outside its own grid.
func Subsolve(g grid.Grid, p *pde.Problem, tol, tEnd float64) (Result, error) {
	return SubsolveWith(g, p, tol, tEnd, rosenbrock.BiCGStab)
}

// SubsolveWith is Subsolve with an explicit choice of inner linear solver.
func SubsolveWith(g grid.Grid, p *pde.Problem, tol, tEnd float64, lin rosenbrock.LinearSolver) (Result, error) {
	return SubsolveInto(g, p, tol, tEnd, lin, nil)
}

// SubsolveInto is SubsolveWith solving out of a reusable integrator
// workspace: the sequential driver passes one workspace across the whole
// grid family so per-grid solver buffers are recycled rather than
// reallocated; each concurrent worker owns its own. ws may be nil, which
// allocates a fresh workspace for this call.
func SubsolveInto(g grid.Grid, p *pde.Problem, tol, tEnd float64, lin rosenbrock.LinearSolver, ws *rosenbrock.Workspace) (Result, error) {
	return SubsolveOn(pde.NewDisc(g, p), tol, tEnd, lin, ws)
}

// SubsolveOn is SubsolveInto on a prebuilt discretization: the caller owns
// d and may reuse it (and the workspace) across integrations of the same
// signature — the serve-layer solver cache does exactly that, keeping the
// assembled matrices, the stage-matrix pattern, and the factor buffers of
// a (grid, solver) signature warm across requests. d must not be shared by
// concurrent integrations. Output is bit-for-bit identical to a fresh
// SubsolveInto.
func SubsolveOn(d *pde.Disc, tol, tEnd float64, lin rosenbrock.LinearSolver, ws *rosenbrock.Workspace) (Result, error) {
	u := d.InitialInterior()
	stats, err := rosenbrock.Integrate(d, u, 0, tEnd, rosenbrock.Config{Tol: tol, Solver: lin, Work: ws})
	if err != nil {
		return Result{}, fmt.Errorf("solver: subsolve %v: %w", d.G, err)
	}
	return Result{Grid: d.G, U: u, Stats: stats}, nil
}

// timedSubsolve is SubsolveInto instrumented for observability: it brackets
// the call with subsolve_begin/subsolve_end events and feeds the per-grid
// duration histogram "solver.subsolve.<grid>.us". With rec == nil it is
// exactly SubsolveInto — no timestamps, no allocation.
func timedSubsolve(rec *obs.Recorder, actor string, g grid.Grid, p *pde.Problem, tol, tEnd float64, lin rosenbrock.LinearSolver, ws *rosenbrock.Workspace) (Result, error) {
	if rec == nil {
		return SubsolveInto(g, p, tol, tEnd, lin, ws)
	}
	return TimedSubsolveOn(rec, actor, pde.NewDisc(g, p), tol, tEnd, lin, ws)
}

// TimedSubsolveOn is SubsolveOn with the same observability bracket as the
// solver drivers: subsolve begin/end events plus the per-grid duration
// histogram. The serve executors use it so batched subsolves appear in
// traces and metrics exactly like pool-dispatched ones. With rec == nil it
// is exactly SubsolveOn.
func TimedSubsolveOn(rec *obs.Recorder, actor string, d *pde.Disc, tol, tEnd float64, lin rosenbrock.LinearSolver, ws *rosenbrock.Workspace) (Result, error) {
	if rec == nil {
		return SubsolveOn(d, tol, tEnd, lin, ws)
	}
	g := d.G
	gname := g.String()
	rec.Emit(obs.KSubsolveBegin, actor, gname, int64(g.L1), int64(g.L2))
	t0 := time.Now()
	res, err := SubsolveOn(d, tol, tEnd, lin, ws)
	rec.Histogram("solver.subsolve." + gname + ".us").ObserveSince(t0)
	rec.Emit(obs.KSubsolveEnd, actor, gname, res.Stats.Ops.Flops, int64(res.Stats.Steps))
	return res, err
}

// FaultStats accounts the failure handling of one concurrent run.
type FaultStats struct {
	// Workers counts worker processes created, retries included.
	Workers int
	// Deaths counts death_worker events; a correct rendezvous has
	// Deaths == Workers, faults or not.
	Deaths int
	// Failures counts failed worker attempts.
	Failures int
	// Retries counts jobs resubmitted to fresh workers.
	Retries int
	// Abandoned counts workers given up on past their deadline.
	Abandoned int
	// Fallbacks counts jobs that exhausted their retries and were computed
	// master-locally instead.
	Fallbacks int
}

// Output is the end product of a run: the combined (prolongated) solution
// on the evaluation grid plus the per-grid results in family order.
type Output struct {
	Params   Params
	Combined *grid.Field
	Results  []Result
	// TotalFlops sums the floating-point work of all Subsolve calls.
	TotalFlops int64
	// Faults reports the failure/retry accounting of a concurrent run
	// (zero for sequential runs and fault-free concurrent runs).
	Faults FaultStats

	compatOutput
}

// combine prolongates the per-grid solutions and applies the combination
// formula. Results must be in Family order so that summation order — and
// therefore floating-point rounding — is identical between the sequential
// and concurrent versions.
func combine(p Params, results []Result) (*Output, error) {
	p = p.withDefaults()
	fam := grid.Family(p.Root, p.Level)
	if len(results) != len(fam) {
		return nil, fmt.Errorf("solver: %d results for family of %d", len(results), len(fam))
	}
	out := &Output{Params: p}
	var fields []*grid.Field
	for i, r := range results {
		if r.Grid != fam[i] {
			return nil, fmt.Errorf("solver: result %d is for %v, want %v", i, r.Grid, fam[i])
		}
		fields = append(fields, pde.FieldFromInterior(r.Grid, p.Problem, r.U, p.TEnd))
		out.TotalFlops += r.Stats.Ops.Flops
	}
	out.Combined = grid.Combine(fields, p.Level, p.EvalGrid())
	out.Results = results
	return out, nil
}

// Combine prolongates per-grid results (in Family order) onto the
// evaluation grid and applies the combination formula, exactly as the
// drivers do after their subsolves. It exists for callers that obtained
// the Results outside this package — the serve layer's cross-request
// batcher — and is bit-for-bit identical to the drivers' combination.
func Combine(p Params, results []Result) (*Output, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return combine(p, results)
}

// Sequential runs the legacy program unchanged: the nested loop calls
// Subsolve grid by grid, then the prolongation work combines the coarse
// approximations. This is the baseline the paper measures as "st".
func Sequential(p Params) (*Output, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// One workspace serves the whole family: grid i+1 reuses (and grows)
	// the solver buffers grid i allocated.
	ws := rosenbrock.NewWorkspace()
	var results []Result
	for _, g := range grid.Family(p.Root, p.Level) {
		r, err := timedSubsolve(p.Obs, "Sequential", g, p.Problem, p.Tol, p.TEnd, p.Solver, ws)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return combine(p, results)
}
