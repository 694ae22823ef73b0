package pde

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/rosenbrock"
)

func TestVarDiscMatchesConstantForConstantField(t *testing.T) {
	// With constant velocity functions, the variable-coefficient assembly
	// must produce exactly the constant-coefficient operator.
	g := grid.Grid{Root: 2, L1: 1, L2: 1}
	cp := &Problem{A1: 0.8, A2: -0.3, D: 0.02}
	vp := &VarProblem{
		A1: func(x, y float64) float64 { return 0.8 },
		A2: func(x, y float64) float64 { return -0.3 },
		D:  0.02,
	}
	dc := NewDisc(g, cp)
	dv := NewVarDisc(g, vp)
	if dc.A.NNZ() != dv.A.NNZ() {
		t.Fatalf("nnz %d vs %d", dc.A.NNZ(), dv.A.NNZ())
	}
	var cols []int
	for r := 0; r < dc.A.Rows; r++ {
		cols, _ = dc.A.AppendRow(r, cols[:0], nil)
		for _, c := range cols {
			if math.Abs(dc.A.At(r, c)-dv.A.At(r, c)) > 1e-13 {
				t.Fatalf("entry (%d,%d): %g vs %g", r, c, dc.A.At(r, c), dv.A.At(r, c))
			}
		}
	}
}

func TestRotatingFieldIsDivergenceFreeRotation(t *testing.T) {
	p := RotatingProblem(2, 0)
	// Velocity at (0.5, 0.75): pure +x? a1 = -2*(0.25) = -0.5, a2 = 0.
	if v := p.A1(0.5, 0.75); math.Abs(v+0.5) > 1e-15 {
		t.Fatalf("a1(0.5,0.75) = %g, want -0.5", v)
	}
	if v := p.A2(0.5, 0.75); v != 0 {
		t.Fatalf("a2(0.5,0.75) = %g, want 0", v)
	}
	// The centre is a stagnation point.
	if p.A1(0.5, 0.5) != 0 || p.A2(0.5, 0.5) != 0 {
		t.Fatal("centre is not a stagnation point")
	}
}

// centerOfMass finds the pulse centre on the interior grid.
func centerOfMass(d *Disc, u linalg.Vector) (float64, float64) {
	var sx, sy, m float64
	for _, s := range d.sources {
		w := u[s.row]
		if w < 0 {
			w = 0
		}
		sx += w * s.x
		sy += w * s.y
		m += w
	}
	return sx / m, sy / m
}

func TestRotatingPulseQuarterTurn(t *testing.T) {
	// Integrate the Molenkamp test for a quarter revolution: the pulse
	// starting at (0.5, 0.25) must arrive near (0.75, 0.5) (rotation is
	// counterclockwise for omega > 0: velocity at (0.5,0.25) is (+, 0)).
	omega := 2 * math.Pi // one revolution per unit time
	p := RotatingProblem(omega, 5e-4)
	g := grid.Grid{Root: 3, L1: 2, L2: 2} // 32x32 cells
	d := NewVarDisc(g, p)
	u := d.InitialInterior()
	_, err := rosenbrock.Integrate(d, u, 0, 0.25, rosenbrock.Config{Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	cx, cy := centerOfMass(d, u)
	if math.Abs(cx-0.75) > 0.06 || math.Abs(cy-0.5) > 0.06 {
		t.Fatalf("pulse centre after quarter turn at (%.3f, %.3f), want ~(0.75, 0.5)", cx, cy)
	}
	// The peak decays (upwind diffusion) but must remain a clear pulse.
	max := u.NormInf()
	if max < 0.2 || max > 1.01 {
		t.Fatalf("pulse peak %g after quarter turn", max)
	}
}

func TestRotatingPulseMassBounded(t *testing.T) {
	// With homogeneous boundaries and the pulse away from them, total mass
	// must not grow and not collapse during a short rotation.
	p := RotatingProblem(2*math.Pi, 5e-4)
	g := grid.Grid{Root: 3, L1: 1, L2: 1}
	d := NewVarDisc(g, p)
	u := d.InitialInterior()
	mass := func(v linalg.Vector) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s
	}
	m0 := mass(u)
	if _, err := rosenbrock.Integrate(d, u, 0, 0.1, rosenbrock.Config{Tol: 1e-4}); err != nil {
		t.Fatal(err)
	}
	m1 := mass(u)
	if m1 > m0*1.01 {
		t.Fatalf("mass grew: %g -> %g", m0, m1)
	}
	if m1 < m0*0.5 {
		t.Fatalf("mass collapsed: %g -> %g", m0, m1)
	}
}

func TestVarDiscWithILUSolver(t *testing.T) {
	// The rotating problem exercises sign changes in the upwind direction;
	// the ILU-preconditioned solver must agree with the default BiCGStab.
	p := RotatingProblem(math.Pi, 1e-3)
	g := grid.Grid{Root: 3, L1: 1, L2: 1}
	run := func(s rosenbrock.LinearSolver) linalg.Vector {
		d := NewVarDisc(g, p)
		u := d.InitialInterior()
		if _, err := rosenbrock.Integrate(d, u, 0, 0.05, rosenbrock.Config{Tol: 1e-5, Solver: s}); err != nil {
			t.Fatal(err)
		}
		return u
	}
	a := run(rosenbrock.BiCGStab)
	b := run(rosenbrock.ILU)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-6 {
			t.Fatalf("solutions diverge at %d: %g vs %g", i, a[i], b[i])
		}
	}
}
