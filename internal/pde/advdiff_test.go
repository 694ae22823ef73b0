package pde

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/linalg"
)

func TestDiscDimensions(t *testing.T) {
	g := grid.Grid{Root: 2, L1: 1, L2: 0}
	d := NewDisc(g, PaperProblem())
	if d.N() != 7*3 {
		t.Fatalf("N = %d, want 21", d.N())
	}
	if d.A.Rows != d.N() || d.A.Cols != d.N() {
		t.Fatalf("A is %dx%d, want %dx%d", d.A.Rows, d.A.Cols, d.N(), d.N())
	}
}

func TestRowSumsZeroForPureAdvectionInterior(t *testing.T) {
	// For a constant-coefficient operator with no diffusion, interior rows
	// away from the boundary must sum to zero (consistency: A applied to a
	// constant field vanishes).
	g := grid.Grid{Root: 3, L1: 0, L2: 0}
	p := &Problem{A1: 1, A2: -0.5, D: 0}
	d := NewDisc(g, p)
	u := linalg.NewVector(d.N())
	u.Fill(1)
	out := linalg.NewVector(d.N())
	d.A.MulVec(out, u, nil)
	// Rows whose stencil touches the boundary are allowed nonzero; check a
	// central row.
	mx := g.NX() - 1
	center := (mx/2)*mx + mx/2
	if math.Abs(out[center]) > 1e-12 {
		t.Fatalf("central row sum = %g, want 0", out[center])
	}
}

func TestUpwindDirectionFollowsSign(t *testing.T) {
	g := grid.Grid{Root: 2, L1: 0, L2: 0}
	mx := g.NX() - 1
	center := (mx/2)*mx + mx/2
	// a1 > 0: west coefficient positive (uses upstream value), east zero.
	d := NewDisc(g, &Problem{A1: 2, A2: 0, D: 0})
	west := d.A.At(center, center-1)
	east := d.A.At(center, center+1)
	if west <= 0 || east != 0 {
		t.Fatalf("a1>0: west=%g east=%g, want west>0 east=0", west, east)
	}
	// a1 < 0: east coefficient positive, west zero.
	d = NewDisc(g, &Problem{A1: -2, A2: 0, D: 0})
	west = d.A.At(center, center-1)
	east = d.A.At(center, center+1)
	if east <= 0 || west != 0 {
		t.Fatalf("a1<0: west=%g east=%g, want east>0 west=0", west, east)
	}
}

func TestFExactForLinearSolution(t *testing.T) {
	// For u = x + y + t the discrete F must equal du/dt = 1 exactly:
	// upwind differences are exact on linear functions.
	p := LinearProblem(0.7, 0.3, 0.05)
	g := grid.Grid{Root: 2, L1: 1, L2: 2}
	d := NewDisc(g, p)
	u := d.ExactInterior(1.5)
	out := linalg.NewVector(d.N())
	d.F(1.5, u, out, nil)
	for i, v := range out {
		if math.Abs(v-1) > 1e-10 {
			t.Fatalf("F[%d] = %g, want 1", i, v)
		}
	}
}

func TestSpatialConsistencyManufactured(t *testing.T) {
	// F(t, exact(t)) must approach u_t as the grid refines; with
	// first-order upwind the truncation error is O(h).
	p := ManufacturedProblem(1, 0.5, 0.02)
	var prev float64 = math.Inf(1)
	for _, l := range []int{1, 2, 3} {
		g := grid.Grid{Root: 2, L1: l, L2: l}
		d := NewDisc(g, p)
		u := d.ExactInterior(0.3)
		out := linalg.NewVector(d.N())
		d.F(0.3, u, out, nil)
		// exact u_t = -exact
		maxErr := 0.0
		ue := d.ExactInterior(0.3)
		for i := range out {
			err := math.Abs(out[i] - (-ue[i]))
			if err > maxErr {
				maxErr = err
			}
		}
		if maxErr > prev {
			t.Fatalf("truncation error grew on refinement: %g -> %g", prev, maxErr)
		}
		prev = maxErr
	}
}

func TestBoundaryEntersRHS(t *testing.T) {
	g := grid.Grid{Root: 2, L1: 0, L2: 0}
	p := &Problem{
		A1: 1, A2: 0, D: 0.1,
		Boundary: func(x, y, t float64) float64 { return 10 * t },
	}
	d := NewDisc(g, p)
	b0 := linalg.NewVector(d.N())
	b1 := linalg.NewVector(d.N())
	d.RHS(0, b0, nil)
	d.RHS(1, b1, nil)
	if b0.NormInf() != 0 {
		t.Fatalf("RHS(0) = %v, want zero (boundary 0 at t=0)", b0.NormInf())
	}
	if b1.NormInf() == 0 {
		t.Fatal("RHS(1) is zero; boundary values not coupled")
	}
}

func TestInitialInterior(t *testing.T) {
	g := grid.Grid{Root: 2, L1: 0, L2: 0}
	p := &Problem{A1: 1, Initial: func(x, y float64) float64 { return x * y }}
	d := NewDisc(g, p)
	u := d.InitialInterior()
	// Interior point (1,1) is at (0.25, 0.25).
	if math.Abs(u[0]-0.0625) > 1e-15 {
		t.Fatalf("u[0] = %g, want 0.0625", u[0])
	}
}

func TestFieldFromInteriorRoundTrip(t *testing.T) {
	g := grid.Grid{Root: 2, L1: 1, L2: 0}
	p := LinearProblem(1, 1, 0.01)
	d := NewDisc(g, p)
	u := d.ExactInterior(2)
	f := d.FieldFromInterior(u, 2)
	// Every grid point (boundary and interior) must match the exact
	// solution at t=2.
	for iy := 0; iy <= g.NY(); iy++ {
		for ix := 0; ix <= g.NX(); ix++ {
			want := p.Exact(g.X(ix), g.Y(iy), 2)
			if math.Abs(f.At(ix, iy)-want) > 1e-13 {
				t.Fatalf("field(%d,%d) = %g, want %g", ix, iy, f.At(ix, iy), want)
			}
		}
	}
}

func TestPaperProblemPulse(t *testing.T) {
	p := PaperProblem()
	if p.Initial(0.3, 0.3) != 1 {
		t.Errorf("pulse peak = %g, want 1", p.Initial(0.3, 0.3))
	}
	if p.Initial(0.9, 0.9) > 1e-7 {
		t.Errorf("pulse tail = %g, want ~0", p.Initial(0.9, 0.9))
	}
	if p.Boundary != nil || p.Source != nil {
		t.Error("paper problem must have homogeneous boundary and no source")
	}
}

// TestNewDiscAllocs bounds assembly's allocations on a 64 x 64 grid: every
// array is sized once from the grid and the stencil's entries reach CSR
// without a sort. Appending entry by entry and radix-sorting them took 55.
func TestNewDiscAllocs(t *testing.T) {
	g, p := grid.Grid{Root: 6}, PaperProblem()
	if n := testing.AllocsPerRun(10, func() { NewDisc(g, p) }); n > 12 {
		t.Fatalf("NewDisc on %dx%d made %v allocations, want <= 12", g.NX(), g.NY(), n)
	}
}

func TestNoInteriorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for grid without interior")
		}
	}()
	NewDisc(grid.Grid{Root: 0, L1: 0, L2: 0}, PaperProblem())
}
