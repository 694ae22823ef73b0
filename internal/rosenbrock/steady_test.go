package rosenbrock_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/pde"
	"repro/internal/rosenbrock"
)

// steadyStepper builds a warm stepper on a periodically forced transport
// problem with an effectively infinite horizon. The forcing keeps the
// solution moving forever, so the controller holds a bounded step size and
// every Step call does the full hot-loop work (with the paper's decaying
// pulse the error estimate collapses, h grows geometrically and t1 is
// reached in a few dozen steps — useless for metering the loop).
func steadyStepper(tb testing.TB, g grid.Grid, lin rosenbrock.LinearSolver) *rosenbrock.Stepper {
	prob := &pde.Problem{
		A1: 1, A2: 0.5, D: 0.01,
		Source: func(x, y, t float64) float64 {
			return math.Cos(t) * math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
		},
	}
	d := pde.NewDisc(g, prob)
	u := d.InitialInterior()
	sp, err := rosenbrock.NewStepper(d, u, 0, 1e9, rosenbrock.Config{Tol: 1e-3, Solver: lin, MaxSteps: 1 << 60, Work: rosenbrock.NewWorkspace()})
	if err != nil {
		tb.Fatal(err)
	}
	// Warm up: let the controller settle and every lazily-grown buffer
	// reach its final size.
	for i := 0; i < 25; i++ {
		if err := sp.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	if sp.Done() {
		tb.Fatal("steady stepper finished during warm-up; the harness is not metering the hot loop")
	}
	return sp
}

// TestStepAllocFree asserts the acceptance criterion of the hot-loop
// rework: one steady-state Rosenbrock step — operator update, both stage
// solves, error control — performs zero allocations, for every inner
// linear solver BenchmarkSubsolveSteady times, on the one core the step
// runs on. The 31x63 grid is there for reductions that span more than one
// chunk; a few steps of it are enough, AllocsPerRun truncating its average.
func TestStepAllocFree(t *testing.T) {
	for _, shape := range []struct {
		suffix string
		g      grid.Grid
		steps  int
	}{{"", grid.Grid{Root: 2, L1: 2, L2: 2}, 50}, {"/31x63", grid.Grid{Root: 2, L1: 3, L2: 4}, 5}} {
		for _, lin := range []rosenbrock.LinearSolver{rosenbrock.BiCGStab, rosenbrock.ILU} {
			t.Run(fmt.Sprintf("%v/cores=1%s", lin, shape.suffix), func(t *testing.T) {
				sp := steadyStepper(t, shape.g, lin)
				before := sp.Stats()
				var stepErr error
				if n := testing.AllocsPerRun(shape.steps, func() {
					if err := sp.Step(); err != nil {
						stepErr = err
					}
				}); n != 0 {
					t.Fatalf("%v allocs per step in steady state, want 0", n)
				}
				if stepErr != nil {
					t.Fatal(stepErr)
				}
				after := sp.Stats()
				// Every metered call must have been a real step attempt, not a
				// post-completion no-op.
				if attempts := (after.Steps + after.Rejected) - (before.Steps + before.Rejected); attempts < shape.steps {
					t.Fatalf("only %d real step attempts were metered", attempts)
				}
			})
		}
	}
}

// BenchmarkSubsolveSteady times the steady-state stepping loop of one
// Subsolve (the paper's heavy kernel) on the finest paper grid
// (level 5, 127x127 interior = 16129 unknowns), one row per inner linear
// solver, with allocation reporting: the b.ReportAllocs line must read
// 0 allocs/op.
func BenchmarkSubsolveSteady(b *testing.B) {
	for _, lin := range []rosenbrock.LinearSolver{rosenbrock.BiCGStab, rosenbrock.ILU} {
		b.Run(lin.String(), func(b *testing.B) {
			sp := steadyStepper(b, grid.Grid{Root: 2, L1: 5, L2: 5}, lin)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sp.Step(); err != nil {
					b.Fatal(err)
				}
			}
			st := sp.Stats()
			b.ReportMetric(float64(st.LinIters)/float64(st.Steps+st.Rejected), "krylov_iters/step")
		})
	}
}

// BenchmarkIntegrateWorkspaceReuse contrasts a fresh workspace per
// integration (the seed behaviour) with a shared one (the sequential
// driver's behaviour) on repeated short integrations.
func BenchmarkIntegrateWorkspaceReuse(b *testing.B) {
	g := grid.Grid{Root: 2, L1: 2, L2: 2}
	for _, reuse := range []bool{false, true} {
		b.Run(fmt.Sprintf("reuse=%v", reuse), func(b *testing.B) {
			d := pde.NewDisc(g, pde.PaperProblem())
			u0 := d.InitialInterior()
			var ws *rosenbrock.Workspace
			if reuse {
				ws = rosenbrock.NewWorkspace()
			}
			u := u0.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(u, u0)
				if _, err := rosenbrock.Integrate(d, u, 0, 0.01, rosenbrock.Config{Tol: 1e-3, Work: ws}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
