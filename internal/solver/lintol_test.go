package solver

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/pde"
	"repro/internal/rosenbrock"
)

// overSolved is the inner tolerance the integrator used at every Tol >= 1e-5
// before the default became a share of Tol; forcing it through
// rosenbrock.Config.LinTol gives the reference the default is judged against.
const overSolved = 1e-8

var allSolvers = []rosenbrock.LinearSolver{rosenbrock.BiCGStab, rosenbrock.GMRES, rosenbrock.ILU}

// familyWithLinTol is Sequential(cores=1) with the stage solves forced to
// linTol: the same grids in the same order through the same combination,
// reaching the integrator with an explicit LinTol where SubsolveOn passes
// none.
func familyWithLinTol(t *testing.T, p Params, linTol float64) *Output {
	t.Helper()
	p = p.withDefaults()
	ws := rosenbrock.NewWorkspace()
	var results []Result
	for _, g := range grid.Family(p.Root, p.Level) {
		d := pde.NewDisc(g, p.Problem)
		u := d.InitialInterior()
		st, err := rosenbrock.Integrate(d, u, 0, p.TEnd, rosenbrock.Config{Tol: p.Tol, Solver: p.Solver, LinTol: linTol, Work: ws})
		if err != nil {
			t.Fatalf("%v at LinTol %g: %v", g, linTol, err)
		}
		results = append(results, Result{Grid: g, U: u, Stats: st})
	}
	out, err := combine(p, results, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func linIters(out *Output) (iters, solves int) {
	for _, r := range out.Results {
		iters += r.Stats.LinIters
		solves += 2 * (r.Stats.Steps + r.Stats.Rejected)
	}
	return iters, solves
}

// TestInnerToleranceRule pins the rule that chose rosenbrock's default inner
// tolerance, on a family small enough for tier 1. Against the over-solved
// reference the default run must (i) take the same accepted and rejected
// steps on every grid — the controller does not notice; (ii) move the
// combined solution by at most 1e-3 of what the time stepping itself is
// good to, measured as ‖u(Tol) − u(Tol/10)‖∞ of the reference; and spend
// strictly fewer Krylov iterations than the reference. A return to a cap
// independent of Tol reads equal and fails the last, a factor loosened past
// 1e-2 fails (ii) and then (i). The last is no ratio: with ILU, or the line
// factor at 1e-4, the reference already stops near two iterations a solve.
func TestInnerToleranceRule(t *testing.T) {
	for _, tol := range []float64{1e-2, 1e-3, 1e-4} {
		for _, lin := range allSolvers {
			tol, lin := tol, lin
			t.Run(fmt.Sprintf("%v/tol=%g", lin, tol), func(t *testing.T) {
				p := Params{Root: 2, Level: 3, Tol: tol, Solver: lin, CoresPerWorker: 1}
				got, err := Sequential(p)
				if err != nil {
					t.Fatal(err)
				}
				ref := familyWithLinTol(t, p, overSolved)
				tighter := p
				tighter.Tol = tol / 10
				scale := ref.Combined.MaxDiff(familyWithLinTol(t, tighter, overSolved).Combined)

				for i, r := range got.Results {
					w := ref.Results[i].Stats
					if r.Stats.Steps != w.Steps || r.Stats.Rejected != w.Rejected {
						t.Errorf("%v: %d steps, %d rejected; over-solved %d, %d", r.Grid, r.Stats.Steps, r.Stats.Rejected, w.Steps, w.Rejected)
					}
				}
				if moved := got.Combined.MaxDiff(ref.Combined); moved > 1e-3*scale {
					t.Errorf("combined solution moved by %.3e = %.2e of the integrator's own error %.3e, want <= 1e-3", moved, moved/scale, scale)
				}
				iters, solves := linIters(got)
				if refIters, _ := linIters(ref); iters >= refIters {
					t.Errorf("%d Krylov iterations against %d over-solved (%d stage solves), want fewer", iters, refIters, solves)
				}
			})
		}
	}
}

// TestPreconditionerRefreshRule pins the rule that keeps either BiCGStab
// preconditioner, ILU(0) or the line factor, across steps until gamma*tau
// drifts more than 30 % from the shift it was computed at: on the -short
// shapes of family-wide (ILU) and family-deep (the line factor), a quarter
// of the step attempts is a generous bound on the factorizations (the rule
// reads 19 of 152 and 44 of 256 at Tol 1e-3, 12 of 494 and 28 of 819 at
// 1e-4), where a refactorization at every new step size asks for one per
// attempt. That the lagging preconditioner
// leaves the answer alone is TestInnerToleranceRule's BiCGStab and ILU rows:
// they compare with the over-solved reference, whose 1e-8 residual no
// preconditioner moves.
func TestPreconditionerRefreshRule(t *testing.T) {
	for _, c := range []struct {
		root, level int
		lin         rosenbrock.LinearSolver
	}{{4, 2, rosenbrock.ILU}, {2, 4, rosenbrock.BiCGStab}} {
		for _, tol := range []float64{1e-3, 1e-4} {
			out, err := Sequential(Params{Root: c.root, Level: c.level, Tol: tol, Solver: c.lin, CoresPerWorker: 1})
			if err != nil {
				t.Fatal(err)
			}
			var facts, attempts int
			for _, r := range out.Results {
				facts += r.Stats.Factorizations
				attempts += r.Stats.Steps + r.Stats.Rejected
			}
			if facts == 0 || facts > attempts/4 {
				t.Errorf("%v, root %d level %d, Tol %g: %d factorizations for %d step attempts, want 1 … %d",
					c.lin, c.root, c.level, tol, facts, attempts, attempts/4)
			}
		}
	}
}

// sameTo reports whether a and b agree to rel of b.
func sameTo(a, b, rel float64) bool { return math.Abs(a-b) <= rel*b }

// TestManufacturedOracle is the known-solution half of the rule: on
// pde.ManufacturedProblem the error against the exact solution, which is
// the spatial discretisation's, must not see the inner tolerance — equal
// under the default and over-solved to 1e-4 relative, for every linear
// solver, on single grids (an isotropic one and the thinnest grid of the
// root-2 level-6 family, 4 x 256) and on the combination at levels 1…4 —
// and the combination must converge at the order the stencils give it.
//
// The order. pde discretises a·u_x upwind, a(u_i − u_{i−1})/h = a·u_x −
// (a·h/2)·u_xx + O(h²), and d·Δu centrally, an O(h²) term; so a grid of
// spacings (hx, hy) carries the error C1·hx + C2·hy + D·hx·hy + O(h²). In
// the combination Σ_{l+m=L} u_lm − Σ_{l+m=L−1} u_lm with hx = H·2^−l,
// hy = H·2^−m the one-directional terms telescope to (C1 + C2)·h_L with
// h_L = H·2^−L, and the mixed one sums to D·H²·((L+1)·2^−L − L·2^−(L−1)) =
// −D·H·h_L·(L−1): the combination is first order in h_L with a factor
// linear in L, e_L ≈ h_L·(C + c·(L−1)), not the h²·log(1/h) central
// differences alone would give. Successive levels therefore stand in the
// ratio e_L/e_{L+1} = 2·(C + c(L−1))/(C + cL), which tends to 2 and is
// below it when the mixed term adds. The band [1.6, 2.05] admits c/C up to
// 1/3 at L = 2 and 2.5 % of second-order terms above; a scheme that lost
// its order (ratio <= 1.5) or gained one it does not have (4) falls outside.
// Measured here: 1.77, 1.80, 1.81 at Tol 1e-3 for all three solvers.
func TestManufacturedOracle(t *testing.T) {
	const tol, tEnd = 1e-3, 0.2
	prob := pde.ManufacturedProblem(1, 0.5, 0.05)
	for _, lin := range allSolvers {
		lin := lin
		t.Run(lin.String(), func(t *testing.T) {
			for _, g := range []grid.Grid{{Root: 3, L1: 2, L2: 2}, {Root: 2, L1: 0, L2: 6}} {
				d := pde.NewDisc(g, prob)
				exact := d.ExactInterior(tEnd)
				var errs [2]float64
				for i, linTol := range []float64{0, overSolved} {
					u := d.InitialInterior()
					if _, err := rosenbrock.Integrate(d, u, 0, tEnd, rosenbrock.Config{Tol: tol, Solver: lin, LinTol: linTol}); err != nil {
						t.Fatalf("%v at LinTol %g: %v", g, linTol, err)
					}
					u.Sub(u, exact, nil)
					errs[i] = u.NormInf()
				}
				if !sameTo(errs[0], errs[1], 1e-4) {
					t.Errorf("%v: error against exact %.6e, over-solved %.6e: differ by more than 1e-4 relative", g, errs[0], errs[1])
				}
			}

			prev := 0.0
			for level := 1; level <= 4; level++ {
				p := Params{Root: 2, Level: level, Tol: tol, Solver: lin, Problem: prob, TEnd: tEnd, CoresPerWorker: 1}
				got, err := Sequential(p)
				if err != nil {
					t.Fatal(err)
				}
				exact := grid.NewField(got.Combined.G)
				exact.Fill(func(x, y float64) float64 { return prob.Exact(x, y, tEnd) })
				e := got.Combined.MaxDiff(exact)
				ref := familyWithLinTol(t, p, overSolved)
				if re := ref.Combined.MaxDiff(exact); !sameTo(e, re, 1e-4) {
					t.Errorf("level %d: combination error %.6e, over-solved %.6e: differ by more than 1e-4 relative", level, e, re)
				}
				// Equal errors prove nothing if the two runs are one run.
				iters, _ := linIters(got)
				if refIters, _ := linIters(ref); iters >= refIters {
					t.Errorf("level %d: the default spent %d Krylov iterations, the over-solved run %d: the comparison is vacuous", level, iters, refIters)
				}
				if level > 1 {
					if r := prev / e; r < 1.6 || r > 2.05 {
						t.Errorf("level %d → %d: error %.4e → %.4e, ratio %.2f outside the first-order band [1.6, 2.05]", level-1, level, prev, e, r)
					}
				}
				prev = e
			}
		})
	}
}
