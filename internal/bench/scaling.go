package bench

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/pde"
	"repro/internal/rosenbrock"
	"repro/internal/solver"
)

// ScalingRow is one row of a strong-scaling measurement: the wall-clock
// time of the finest-grid subsolve at a fixed problem size and a growing
// intra-grid team, plus the fused-phase dispatch traffic of the fastest
// run (how many team wake/park cycles the solve cost, and how many
// in-phase barriers they crossed).
type ScalingRow struct {
	Cores   int
	Seconds float64
	Speedup float64 // vs the 1-core row (or the first row measured)

	Phases   int64 // fused-phase dispatches in the fastest run
	PhaseUs  int64 // total wall-clock microseconds inside those dispatches
	Barriers int64 // in-phase barriers crossed by those dispatches
}

// phaseCounter tallies fused-phase dispatch traffic; it implements
// linalg.PhaseObserver.
type phaseCounter struct {
	phases, us, barriers int64
}

func (c *phaseCounter) ObservePhase(us, barriers int64) {
	c.phases++
	c.us += us
	c.barriers += barriers
}

// ScalingOptions configures a strong-scaling run.
type ScalingOptions struct {
	Grid grid.Grid // the grid each run subsolves (the finest-grid wall)
	Tol  float64
	TEnd float64
	Lin  rosenbrock.LinearSolver
	// Cores lists the team sizes to measure, e.g. 1,2,4; nil picks
	// 1,2,4,...,GOMAXPROCS.
	Cores []int
	// Runs > 1 repeats each measurement and keeps the fastest (minimum is
	// the robust wall-clock estimator); <= 1 measures once.
	Runs int
}

// DefaultScalingOptions mirrors the EXPERIMENTS.md strong-scaling table:
// the finest square grid at eval-cap refinement, paper tolerance, cores
// doubling up to GOMAXPROCS.
func DefaultScalingOptions(tol float64) ScalingOptions {
	var cores []int
	for c := 1; c <= runtime.GOMAXPROCS(0); c *= 2 {
		cores = append(cores, c)
	}
	return ScalingOptions{
		Grid:  grid.Grid{Root: 2, L1: 5, L2: 5},
		Tol:   tol,
		TEnd:  solver.DefaultTEnd,
		Cores: cores,
		Runs:  3,
	}
}

// StrongScaling measures the finest-grid subsolve at each team size. The
// computed solutions are bit-for-bit identical across rows (the team
// kernels are deterministic); only the wall clock moves. The host is
// calibrated first, so the serial/parallel cut-over reflects measured
// dispatch cost rather than the hand-set default; each row also reports
// the phase dispatch traffic of its fastest run.
func StrongScaling(o ScalingOptions) ([]ScalingRow, error) {
	linalg.Calibrate()
	if len(o.Cores) == 0 {
		o.Cores = []int{1, runtime.GOMAXPROCS(0)}
	}
	if o.Runs < 1 {
		o.Runs = 1
	}
	prob := pde.PaperProblem()
	rows := make([]ScalingRow, 0, len(o.Cores))
	base := 0.0
	for _, c := range o.Cores {
		team := linalg.NewTeam(c)
		ws := rosenbrock.NewWorkspace()
		ws.SetTeam(team)
		best := 0.0
		var bestPh phaseCounter
		for r := 0; r < o.Runs; r++ {
			var ph phaseCounter
			team.SetPhaseObserver(&ph)
			t0 := time.Now()
			if _, err := solver.SubsolveInto(o.Grid, prob, o.Tol, o.TEnd, o.Lin, ws); err != nil {
				team.Close()
				return nil, err
			}
			if sec := time.Since(t0).Seconds(); r == 0 || sec < best {
				best = sec
				bestPh = ph
			}
		}
		team.Close()
		if base == 0 {
			base = best
		}
		rows = append(rows, ScalingRow{
			Cores: c, Seconds: best, Speedup: base / best,
			Phases: bestPh.phases, PhaseUs: bestPh.us, Barriers: bestPh.barriers,
		})
	}
	return rows, nil
}

// WriteScaling renders the rows in the layout of the paper's Table 1
// (problem column, measured seconds, derived speedup), followed by the
// phase dispatch traffic and the host calibration (one cut-over) the run
// used.
func WriteScaling(w io.Writer, o ScalingOptions, rows []ScalingRow) error {
	cal := linalg.Calibrate()
	if _, err := fmt.Fprintf(w, "strong scaling: subsolve %v, tol %.1e, %s (host: GOMAXPROCS=%d, NumCPU=%d)\n",
		o.Grid, o.Tol, o.Lin, runtime.GOMAXPROCS(0), runtime.NumCPU()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "calibration: dispatch %.1f us, elem %.2f ns, effective procs %d, sequentialized %v, cut-over %d\n",
		cal.DispatchUs, cal.ElemNs, cal.EffectiveProcs, cal.Sequentialized, cal.ParMinPhase); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%8s | %12s | %8s | %10s | %12s | %10s\n",
		"cores", "seconds", "speedup", "phases", "us/phase", "barriers"); err != nil {
		return err
	}
	for _, r := range rows {
		usPerPhase := 0.0
		if r.Phases > 0 {
			usPerPhase = float64(r.PhaseUs) / float64(r.Phases)
		}
		if _, err := fmt.Fprintf(w, "%8d | %12.4f | %8.2f | %10d | %12.2f | %10d\n",
			r.Cores, r.Seconds, r.Speedup, r.Phases, usPerPhase, r.Barriers); err != nil {
			return err
		}
	}
	return nil
}

// ParseCores parses a comma-separated cores list such as "1,2,4".
func ParseCores(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || c < 1 {
			return nil, fmt.Errorf("bench: bad cores list %q", s)
		}
		out = append(out, c)
	}
	return out, nil
}
