package solver

import (
	"math"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/pde"
	"repro/internal/rosenbrock"
)

func TestParamsValidate(t *testing.T) {
	// field, where set, is the name the error must give. A negative EvalCap
	// used to solve to a one-point field of maximum 0 with a nil error, and
	// a NaN or infinite TEnd to fail deep in the first subsolve as a
	// BiCGStab breakdown.
	cases := []struct {
		p     Params
		ok    bool
		field string
	}{
		{Params{Root: 2, Level: 3, Tol: 1e-3}, true, ""},
		{Params{Root: 2, Level: 3, Tol: 1e-3, TEnd: 0.1, EvalCap: 2}, true, ""},
		{Params{Root: 0, Level: 3, Tol: 1e-3}, false, ""},
		{Params{Root: 2, Level: -1, Tol: 1e-3}, false, ""},
		{Params{Root: 2, Level: 3, Tol: 0}, false, ""},
		{Params{Root: 2, Level: 3, Tol: math.NaN()}, false, ""},
		{Params{Root: 2, Level: 3, Tol: math.Inf(1)}, false, ""},
		{Params{Root: 2, Level: 2, Tol: 1e-3, EvalCap: -4}, false, "EvalCap"},
		{Params{Root: 2, Level: 2, Tol: 1e-3, TEnd: math.NaN()}, false, "TEnd"},
		{Params{Root: 2, Level: 2, Tol: 1e-3, TEnd: math.Inf(1)}, false, "TEnd"},
		{Params{Root: 2, Level: 2, Tol: 1e-3, TEnd: math.Inf(-1)}, false, "TEnd"},
		{Params{Root: 2, Level: 2, Tol: 1e-3, TEnd: -0.1}, false, "TEnd"},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.p, err, c.ok)
		} else if err != nil && !strings.Contains(err.Error(), c.field+" ") {
			t.Errorf("Validate(%+v) = %q, does not name %s", c.p, err, c.field)
		}
		if c.field == "" {
			continue
		}
		// Sequential refuses them before the first subsolve.
		if out, err := Sequential(c.p); err == nil || out != nil {
			t.Errorf("Sequential with bad %s: output %t, error %v; want no output and an error", c.field, out != nil, err)
		}
	}
}

func TestEvalGridCapped(t *testing.T) {
	p := Params{Root: 2, Level: 12, Tol: 1e-3}
	g := p.EvalGrid()
	if g.L1 != DefaultEvalCap || g.L2 != DefaultEvalCap {
		t.Fatalf("eval grid = %v, want capped at %d", g, DefaultEvalCap)
	}
	p.Level = 2
	g = p.EvalGrid()
	if g.L1 != 2 || g.L2 != 2 {
		t.Fatalf("eval grid = %v, want (2,2)", g)
	}
}

func TestSubsolveLinearExact(t *testing.T) {
	// u = x + y + t is reproduced to rounding error by the discretization
	// and integrator together.
	prob := pde.LinearProblem(1, 0.5, 0.02)
	g := grid.Grid{Root: 2, L1: 1, L2: 1}
	r, err := Subsolve(g, prob, 1e-6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	d := pde.NewDisc(g, prob)
	want := d.ExactInterior(0.5)
	for i := range r.U {
		// Spatial discretization is exact for bilinear u; the remaining
		// error is the order-2 time integration at tol 1e-6.
		if math.Abs(r.U[i]-want[i]) > 2e-5 {
			t.Fatalf("u[%d] = %g, want %g", i, r.U[i], want[i])
		}
	}
	if r.Stats.Steps == 0 {
		t.Fatal("no steps recorded")
	}
}

func TestSubsolveManufacturedConverges(t *testing.T) {
	// Refining the grid shrinks the error against the manufactured exact
	// solution (first-order upwind dominates).
	prob := pde.ManufacturedProblem(1, 0.5, 0.05)
	var prev = math.Inf(1)
	for _, l := range []int{0, 1, 2} {
		g := grid.Grid{Root: 3, L1: l, L2: l}
		r, err := Subsolve(g, prob, 1e-7, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		d := pde.NewDisc(g, prob)
		want := d.ExactInterior(0.2)
		maxErr := 0.0
		for i := range r.U {
			if e := math.Abs(r.U[i] - want[i]); e > maxErr {
				maxErr = e
			}
		}
		if maxErr > prev {
			t.Fatalf("error grew on refinement: level %d err %g, prev %g", l, maxErr, prev)
		}
		prev = maxErr
	}
	// First-order upwind: error ~ C*h with h = 1/32 on the finest grid.
	if prev > 0.06 {
		t.Fatalf("final error %g too large", prev)
	}
}

func TestSequentialRuns(t *testing.T) {
	out, err := Sequential(Params{Root: 2, Level: 2, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 5 { // 2*level+1
		t.Fatalf("got %d results, want 5", len(out.Results))
	}
	if out.Combined == nil || out.Combined.G != out.Params.EvalGrid() {
		t.Fatalf("combined field missing or on wrong grid")
	}
	if out.TotalFlops == 0 {
		t.Fatal("no flops accounted")
	}
	// The combined solution of the advected pulse must be nontrivial and
	// bounded (maximum principle up to combination wiggle).
	max := out.Combined.V.NormInf()
	if max == 0 || max > 1.5 {
		t.Fatalf("combined solution max %g outside (0, 1.5]", max)
	}
}

func TestSequentialLevelZero(t *testing.T) {
	out, err := Sequential(Params{Root: 2, Level: 0, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 {
		t.Fatalf("level 0 must run exactly one grid, got %d", len(out.Results))
	}
}

func TestSequentialFamilyOrder(t *testing.T) {
	out, err := Sequential(Params{Root: 2, Level: 2, Tol: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	fam := grid.Family(2, 2)
	for i, r := range out.Results {
		if r.Grid != fam[i] {
			t.Fatalf("result %d on %v, want %v", i, r.Grid, fam[i])
		}
	}
}

func TestSequentialSparseGridAccuracy(t *testing.T) {
	// Against the manufactured solution, the combined sparse-grid answer
	// at level L must be more accurate than the single coarse grid (0,0).
	prob := pde.ManufacturedProblem(0.5, 0.5, 0.05)
	p := Params{Root: 2, Level: 3, Tol: 1e-6, Problem: prob, TEnd: 0.2}
	out, err := Sequential(p)
	if err != nil {
		t.Fatal(err)
	}
	eval := p.EvalGrid()
	exact := grid.NewField(eval)
	exact.Fill(func(x, y float64) float64 { return prob.Exact(x, y, 0.2) })
	errCombined := out.Combined.MaxDiff(exact)

	// Single coarsest-grid solve, prolongated to the same evaluation grid.
	r, err := Subsolve(grid.Grid{Root: 2, L1: 0, L2: 0}, prob, 1e-6, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	d := pde.NewDisc(r.Grid, prob)
	coarse := d.FieldFromInterior(r.U, 0.2).Prolongate(eval)
	errCoarse := coarse.MaxDiff(exact)

	if errCombined >= errCoarse {
		t.Fatalf("sparse-grid error %g not better than coarse-grid error %g", errCombined, errCoarse)
	}
}

func TestWorkGrowsWithLevel(t *testing.T) {
	// Total flops must grow steeply with level — this growth is what makes
	// the paper's sequential times explode from 0.02 s to 4000 s.
	var prev int64
	for _, level := range []int{0, 1, 2, 3} {
		out, err := Sequential(Params{Root: 2, Level: level, Tol: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		if out.TotalFlops <= prev {
			t.Fatalf("flops did not grow: level %d has %d <= %d", level, out.TotalFlops, prev)
		}
		prev = out.TotalFlops
	}
}

func TestTighterToleranceCostsMore(t *testing.T) {
	loose, err := Sequential(Params{Root: 2, Level: 2, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Sequential(Params{Root: 2, Level: 2, Tol: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if tight.TotalFlops <= loose.TotalFlops {
		t.Fatalf("tol 1e-5 flops %d <= tol 1e-3 flops %d", tight.TotalFlops, loose.TotalFlops)
	}
}

func TestILUInnerSolverSameAnswer(t *testing.T) {
	base := Params{Root: 2, Level: 1, Tol: 1e-3}
	withILU := base
	withILU.Solver = rosenbrock.ILU
	a, err := Sequential(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sequential(withILU)
	if err != nil {
		t.Fatal(err)
	}
	if d := a.Combined.MaxDiff(b.Combined); d > 1e-6 {
		t.Fatalf("inner solvers disagree by %g", d)
	}
}
