package rosenbrock

import (
	"errors"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/pde"
)

// scalarSystem is u' = lambda*u + g(t), with Jacobian [lambda].
type scalarSystem struct {
	lambda float64
	g      func(t float64) float64
	jac    *linalg.CSR
}

func newScalar(lambda float64, g func(float64) float64) *scalarSystem {
	b := linalg.NewBuilder(1, 1)
	b.Add(0, 0, lambda)
	return &scalarSystem{lambda: lambda, g: g, jac: b.Build()}
}

func (s *scalarSystem) N() int { return 1 }
func (s *scalarSystem) F(t float64, u, out linalg.Vector, ops *linalg.Ops) {
	gv := 0.0
	if s.g != nil {
		gv = s.g(t)
	}
	out[0] = s.lambda*u[0] + gv
	ops.Add(3)
}
func (s *scalarSystem) Jacobian() *linalg.CSR { return s.jac }

func TestDecayAccuracy(t *testing.T) {
	sys := newScalar(-2, nil)
	u := linalg.Vector{1}
	st, err := Integrate(sys, u, 0, 1, Config{Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-2)
	if math.Abs(u[0]-want) > 1e-5 {
		t.Fatalf("u(1) = %g, want %g (err %g, steps %d)", u[0], want, u[0]-want, st.Steps)
	}
	if st.Steps == 0 {
		t.Fatal("no steps taken")
	}
}

func TestTimeDependentSource(t *testing.T) {
	// u' = -u + cos(t), u(0)=0 -> u = (sin t + cos t - e^{-t})/2.
	sys := newScalar(-1, math.Cos)
	u := linalg.Vector{0}
	if _, err := Integrate(sys, u, 0, 2, Config{Tol: 1e-7}); err != nil {
		t.Fatal(err)
	}
	want := (math.Sin(2) + math.Cos(2) - math.Exp(-2)) / 2
	if math.Abs(u[0]-want) > 1e-5 {
		t.Fatalf("u(2) = %g, want %g", u[0], want)
	}
}

func TestExactForLinearInTime(t *testing.T) {
	// u' = 1 (g(t)=1, lambda=0): the trapezoidal weights of ROS2 integrate
	// constants exactly; the error estimate is zero so steps grow to the
	// clamp.
	sys := newScalar(0, func(float64) float64 { return 1 })
	u := linalg.Vector{0}
	st, err := Integrate(sys, u, 0, 10, Config{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u[0]-10) > 1e-9 {
		t.Fatalf("u(10) = %g, want 10", u[0])
	}
	if st.Rejected != 0 {
		t.Errorf("rejected %d steps on an exactly-representable problem", st.Rejected)
	}
}

func TestToleranceControlsError(t *testing.T) {
	// Tighter tolerance must give smaller error and more steps (the
	// mechanism behind the paper's 1.0e-3 vs 1.0e-4 run pairs).
	want := math.Exp(-2)
	var errs []float64
	var steps []int
	for _, tol := range []float64{1e-3, 1e-5, 1e-7} {
		sys := newScalar(-2, nil)
		u := linalg.Vector{1}
		st, err := Integrate(sys, u, 0, 1, Config{Tol: tol})
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, math.Abs(u[0]-want))
		steps = append(steps, st.Steps)
	}
	if !(errs[0] > errs[1] && errs[1] > errs[2]) {
		t.Errorf("errors %v not decreasing with tolerance", errs)
	}
	if !(steps[0] < steps[1] && steps[1] < steps[2]) {
		t.Errorf("steps %v not increasing with tolerance", steps)
	}
}

func TestSecondOrderConvergence(t *testing.T) {
	// With a fixed step (Tol huge so nothing is rejected, H0 set, clamp
	// prevents growth? -- instead emulate fixed step by tiny span), verify
	// global error ~ O(h^2) by comparing two tolerance-driven runs is
	// indirect; here we directly check order by halving H0 on a single
	// step: local error of one ROS2 step is O(tau^3).
	lerr := func(tau float64) float64 {
		sys := newScalar(-1, nil)
		u := linalg.Vector{1}
		// One step exactly: set Tol so large that the step is accepted.
		_, err := Integrate(sys, u, 0, tau, Config{Tol: 1e6, H0: tau})
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(u[0] - math.Exp(-tau))
	}
	e1 := lerr(0.2)
	e2 := lerr(0.1)
	ratio := e1 / e2
	// O(tau^3) local error -> ratio ~ 8; allow slack.
	if ratio < 5 || ratio > 12 {
		t.Fatalf("local error ratio %g (e1=%g e2=%g), want ~8 (third-order local)", ratio, e1, e2)
	}
}

func TestStiffStability(t *testing.T) {
	// Very stiff decay: an explicit method with these step counts would
	// explode; ROS2 (L-stable) must stay bounded and accurate.
	sys := newScalar(-1e6, func(t float64) float64 { return 1e6 * math.Sin(t) })
	u := linalg.Vector{1}
	st, err := Integrate(sys, u, 0, 1, Config{Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	// Quasi-steady solution ~ sin(t) for t >> 1e-6.
	if math.Abs(u[0]-math.Sin(1)) > 1e-3 {
		t.Fatalf("u(1) = %g, want ~sin(1)=%g", u[0], math.Sin(1))
	}
	// Order reduction on the stiff source makes the controller take many
	// small steps (global error O(tau) here), but an explicit method would
	// need tau < 2/|lambda| = 2e-6, i.e. >500k steps. L-stability keeps the
	// count four orders of magnitude lower.
	if st.Steps > 50_000 {
		t.Fatalf("stiff problem took %d steps; L-stability not effective", st.Steps)
	}
	if st.Rejected > st.Steps {
		t.Fatalf("rejected %d > accepted %d", st.Rejected, st.Steps)
	}
}

func TestZeroSpanNoWork(t *testing.T) {
	sys := newScalar(-1, nil)
	u := linalg.Vector{1}
	st, err := Integrate(sys, u, 3, 3, Config{Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps != 0 || u[0] != 1 {
		t.Fatalf("zero-span integration did work: %+v, u=%v", st, u)
	}
}

func TestInvalidArguments(t *testing.T) {
	sys := newScalar(-1, nil)
	if _, err := Integrate(sys, linalg.Vector{1}, 1, 0, Config{Tol: 1e-6}); err == nil {
		t.Error("t1 < t0 accepted")
	}
	// A tolerance that is not a finite positive number must be refused by
	// name before the first stage. `Tol <= 0` lets NaN and +Inf through: a
	// NaN Tol makes the error norm, then the step size, NaN, and surfaces
	// one or two steps in as a stage solve that "did not converge"; an
	// infinite Tol or LinTol accepts any step or any iterate and returns an
	// answer; a negative LinTol silently meant the default. MaxSteps bounds
	// whatever a missing check lets run.
	for _, c := range []struct {
		name        string
		tol, linTol float64
	}{
		{"zero Tol", 0, 0},
		{"negative Tol", -1e-3, 0},
		{"NaN Tol", math.NaN(), 0},
		{"NaN Tol, explicit LinTol", math.NaN(), 1e-8}, // solves converge, the controller sees NaN
		{"+Inf Tol", math.Inf(1), 0},
		{"-Inf Tol", math.Inf(-1), 0},
		{"NaN LinTol", 1e-3, math.NaN()},
		{"+Inf LinTol", 1e-3, math.Inf(1)},
		{"negative LinTol", 1e-3, -1e-8},
	} {
		st, err := Integrate(sys, linalg.Vector{1}, 0, 1, Config{Tol: c.tol, LinTol: c.linTol, MaxSteps: 20})
		if err == nil {
			t.Errorf("%s accepted", c.name)
		} else if st.FEvals != 0 {
			t.Errorf("%s: refused only after %d evaluations (%v), want before the first", c.name, st.FEvals, err)
		}
	}
}

func TestMaxStepsEnforced(t *testing.T) {
	sys := newScalar(-1, nil)
	u := linalg.Vector{1}
	_, err := Integrate(sys, u, 0, 1e6, Config{Tol: 1e-10, MaxSteps: 5})
	if err == nil {
		t.Fatal("expected ErrTooManySteps")
	}
}

func TestStatsAccounting(t *testing.T) {
	sys := newScalar(-2, nil)
	u := linalg.Vector{1}
	st, err := Integrate(sys, u, 0, 1, Config{Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if st.FEvals != 2*(st.Steps+st.Rejected) {
		t.Errorf("FEvals = %d, want 2*(steps+rejected) = %d", st.FEvals, 2*(st.Steps+st.Rejected))
	}
	if st.Ops.Flops == 0 {
		t.Error("no flops accounted")
	}
}

// diffusion1D is the method-of-lines heat equation with exact solution
// e^{-pi^2 t} sin(pi x): a real PDE-shaped system exercising the BiCGStab
// stage solves.
type diffusion1D struct {
	n   int
	jac *linalg.CSR
}

func newDiffusion1D(n int) *diffusion1D {
	h := 1.0 / float64(n+1)
	b := linalg.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, -2/(h*h))
		if i > 0 {
			b.Add(i, i-1, 1/(h*h))
		}
		if i < n-1 {
			b.Add(i, i+1, 1/(h*h))
		}
	}
	return &diffusion1D{n: n, jac: b.Build()}
}

func (d *diffusion1D) N() int { return d.n }
func (d *diffusion1D) F(t float64, u, out linalg.Vector, ops *linalg.Ops) {
	d.jac.MulVec(out, u, ops)
}
func (d *diffusion1D) Jacobian() *linalg.CSR { return d.jac }

func TestHeatEquation(t *testing.T) {
	n := 63
	sys := newDiffusion1D(n)
	h := 1.0 / float64(n+1)
	u := linalg.NewVector(n)
	for i := range u {
		u[i] = math.Sin(math.Pi * float64(i+1) * h)
	}
	st, err := Integrate(sys, u, 0, 0.1, Config{Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	decay := math.Exp(-math.Pi * math.Pi * 0.1)
	maxErr := 0.0
	for i := range u {
		want := decay * math.Sin(math.Pi*float64(i+1)*h)
		if e := math.Abs(u[i] - want); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 5e-4 {
		t.Fatalf("heat equation max error %g (steps %d, liniters %d)", maxErr, st.Steps, st.LinIters)
	}
	if st.LinIters == 0 {
		t.Error("expected BiCGStab iterations on a nontrivial system")
	}
}

// TestWarmWorkspaceHistoryIndependent: what a Workspace ran before must not
// reach an integration's answer or its cost. The second run starts at a
// shift the first run's last preconditioner — ILU(0) or the line factor —
// was computed at, exactly or within refreshShift of it, where a factor cache
// that outlived its integration would precondition with the previous run's
// factors, or skip a factorization and its flops. Or it follows a run that
// failed and left non-finite values and signed zeros in every slot of the
// predictor's ring: a slot the new run has not written must not be read,
// not even times a zero weight. It must be bit-identical to the same run on
// a fresh Workspace, for every linear solver.
func TestWarmWorkspaceHistoryIndependent(t *testing.T) {
	d := pde.NewDisc(grid.Grid{Root: 2, L1: 2, L2: 1}, pde.PaperProblem())
	// run integrates to t1; a positive maxSteps is a budget it must exhaust.
	run := func(t *testing.T, lin LinearSolver, ws *Workspace, h0, t1 float64, maxSteps int) (linalg.Vector, Stats, float64) {
		u := d.InitialInterior()
		s, err := NewStepper(d, u, 0, t1, Config{Tol: 1e-3, Solver: lin, H0: h0, MaxSteps: maxSteps, Work: ws})
		if err != nil {
			t.Fatal(err)
		}
		for !s.Done() {
			if err := s.Step(); err != nil {
				if maxSteps == 0 || !errors.Is(err, ErrTooManySteps) {
					t.Fatal(err)
				}
				return u, s.Stats(), s.pcShift
			}
		}
		if maxSteps > 0 {
			t.Fatalf("%v: the run ended within its budget of %d steps", lin, maxSteps)
		}
		return u, s.Stats(), s.pcShift
	}
	const h0, tEnd = 0.004, 0.5
	for _, c := range []struct {
		name     string
		warmT1   float64 // the first run's end
		within   float64 // the second run's first shift over the first run's last factor shift
		warmFail int     // > 0: the first run fails after this many attempts, its ring poisoned
	}{
		{"same shift", h0, 1, 0}, // one step: its factors are at Gamma*h0
		{"within refreshShift", tEnd, 1 + refreshShift/2, 0},
		{"after a failed run", tEnd, 1, 2*predOrder + 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, lin := range []LinearSolver{BiCGStab, ILU} {
				ws := NewWorkspace()
				_, st, last := run(t, lin, ws, h0, c.warmT1, c.warmFail)
				if c.warmFail > 0 {
					if st.Steps <= predOrder {
						t.Fatalf("%v: the failed warm-up accepted %d steps; the ring never wrapped", lin, st.Steps)
					}
					poison := [...]float64{math.NaN(), math.Inf(1), math.Copysign(0, -1), math.Inf(-1)}
					for j := range ws.hist {
						for k := range ws.hist[j] {
							ws.hist[j][k].Fill(poison[(2*j+k)%len(poison)])
						}
					}
				}
				h := h0
				if c.within != 1 {
					h = c.within * last / Gamma
				}
				if c.warmT1 == h0 && st.Factorizations != 1 {
					t.Fatalf("%v: the one-step warm-up factored %d times", lin, st.Factorizations)
				}
				uWarm, stWarm, _ := run(t, lin, ws, h, tEnd, 0)
				uCold, stCold, _ := run(t, lin, NewWorkspace(), h, tEnd, 0)
				if stWarm != stCold {
					t.Errorf("%v: warm workspace: %+v; fresh: %+v", lin, stWarm, stCold)
				}
				for i := range uCold {
					if math.Float64bits(uWarm[i]) != math.Float64bits(uCold[i]) {
						t.Fatalf("%v: u[%d] = %v on the warm workspace, %v on a fresh one", lin, i, uWarm[i], uCold[i])
					}
				}
			}
		})
	}
}

// TestPredictorWeights: after every number of recorded steps, as the ring
// fills and wraps, the weights the stepper leaves in the slots it reads
// extrapolate every polynomial of degree q-1 in the step number to the next
// step exactly, q = min(steps, predOrder), and read by age they are the
// binomial rows.
func TestPredictorWeights(t *testing.T) {
	binomial := [][]float64{{1}, {2, -1}, {3, -3, 1}, {4, -6, 4, -1}}
	s := &Stepper{ws: NewWorkspace()}
	for n := 1; n <= 4*predOrder; n++ {
		s.nHist = n
		q := min(n, predOrder)
		s.predictWeights(q)
		w := s.ws.psc[pscW : pscW+q]
		step := make([]float64, q) // the step number slot j holds: the last i < n with i mod predOrder = j
		for j := range step {
			step[j] = float64(n - 1 - (n-1-j)%predOrder)
		}
		for a := 1; a <= q; a++ {
			if got := w[(n-a)%predOrder]; got != binomial[q-1][a-1] {
				t.Fatalf("%d steps: the step %d back weighs %v, want %v", n, a, got, binomial[q-1][a-1])
			}
		}
		for deg := 0; deg < q; deg++ {
			p := func(x float64) float64 { return math.Pow(x+0.5, float64(deg)) + float64(deg)*x }
			sum := 0.0
			for j := range step {
				sum += w[j] * p(step[j])
			}
			if want := p(float64(n)); math.Abs(sum-want) > 1e-12*math.Abs(want) {
				t.Errorf("%d steps: degree %d extrapolates to %v, want %v", n, deg, sum, want)
			}
		}
	}
}

// TestPredictorSkipsRejectedAttempts: a rejected attempt leaves the
// predictor's ring and count as they were, both before the first accepted
// step (H0 the whole span) and with a full ring; an accepted one writes its
// k1 and k2 over the oldest slot. A run that takes a rejected attempt and
// then resumes at the step size it had is bit for bit the run that never
// took it, once each attempt factors at its own shift: both runs reset
// pcShift before every attempt, or the factor a rejected attempt computed
// at its larger shift would outlive it and precondition the steps after.
func TestPredictorSkipsRejectedAttempts(t *testing.T) {
	d := pde.NewDisc(grid.Grid{Root: 2, L1: 2, L2: 1}, pde.PaperProblem())
	const t1 = 0.5
	start := func(h0 float64) (*Stepper, linalg.Vector) {
		u := d.InitialInterior()
		s, err := NewStepper(d, u, 0, t1, Config{Tol: 1e-3, Solver: ILU, H0: h0})
		if err != nil {
			t.Fatal(err)
		}
		return s, u
	}
	snapshot := func(s *Stepper) []linalg.Vector {
		var v []linalg.Vector
		for j := range s.ws.hist {
			v = append(v, s.ws.hist[j][0].Clone(), s.ws.hist[j][1].Clone())
		}
		return v
	}
	same := func(a, b linalg.Vector) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	// step takes one attempt and checks what it did to the ring.
	step := func(s *Stepper) (accepted bool) {
		t.Helper()
		before, n, rej := snapshot(s), s.nHist, s.st.Rejected
		s.pcShift = math.NaN()
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		after := snapshot(s)
		if s.st.Rejected > rej {
			for i := range before {
				if s.nHist != n || !same(before[i], after[i]) {
					t.Fatalf("a rejected attempt changed the ring (count %d -> %d, vector %d)", n, s.nHist, i)
				}
			}
			return false
		}
		j := n % predOrder
		if s.nHist != n+1 || !same(s.ws.hist[j][0], s.ws.k1) || !same(s.ws.hist[j][1], s.ws.k2) {
			t.Fatalf("accepted step %d: count %d, slot %d does not hold its k1 and k2", n, s.nHist, j)
		}
		return true
	}

	s, _ := start(t1)
	for !step(s) {
	}
	if s.st.Rejected == 0 {
		t.Fatal("premise: H0 = the whole span must be rejected")
	}

	ref, uRef := start(0)
	s, u := start(0)
	forced := 0
	for !ref.Done() {
		if ref.st.Steps > predOrder && ref.st.Steps%3 == 0 && forced < 3 {
			h := s.h
			s.h = t1 - s.t
			if step(s) {
				t.Fatalf("premise: a step over the rest of the span at t=%g must be rejected", s.t)
			}
			s.h = h
			forced++
		}
		step(ref)
		step(s)
		if !same(u, uRef) || s.t != ref.t || s.h != ref.h {
			t.Fatalf("after %d accepted steps and %d forced rejections the runs differ", ref.st.Steps, forced)
		}
	}
	if forced == 0 || s.st.Rejected != ref.st.Rejected+forced {
		t.Fatalf("forced %d rejections: %d against %d", forced, s.st.Rejected, ref.st.Rejected)
	}
}

func TestLinearSolverString(t *testing.T) {
	if BiCGStab.String() != "BiCGStab" || ILU.String() != "ILU-BiCGStab" {
		t.Fatalf("%v %v", BiCGStab, ILU)
	}
}

func TestILUSolverMatchesBiCGStab(t *testing.T) {
	n := 31
	run := func(s LinearSolver) linalg.Vector {
		sys := newDiffusion1D(n)
		h := 1.0 / float64(n+1)
		u := linalg.NewVector(n)
		for i := range u {
			u[i] = math.Sin(math.Pi * float64(i+1) * h)
		}
		if _, err := Integrate(sys, u, 0, 0.05, Config{Tol: 1e-6, Solver: s}); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		return u
	}
	a := run(BiCGStab)
	b := run(ILU)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-7 {
			t.Fatalf("solvers diverge at %d: %g vs %g", i, a[i], b[i])
		}
	}
	if ILU.String() != "ILU-BiCGStab" {
		t.Fatalf("String() = %q", ILU.String())
	}
}

// linearSystem is u' = J u for a Jacobian given entry by entry.
type linearSystem struct{ jac *linalg.CSR }

func (l *linearSystem) N() int { return l.jac.Rows }
func (l *linearSystem) F(t float64, u, out linalg.Vector, ops *linalg.Ops) {
	l.jac.MulVec(out, u, ops)
}
func (l *linearSystem) Jacobian() *linalg.CSR { return l.jac }

// zeroPivotSystem returns u' = J u on the interior of a 2 x 2 grid whose
// stage matrix M = I - s*J at the shift s has an exact zero ILU(0) pivot:
// m00 = m22 = 1 and m02 = m20 = 1, so row 2 eliminates to 1 - 1*1. The x
// couplings (offset 1) outweigh the y couplings (offset 2), and every pivot
// of the x-lines is far from zero.
func zeroPivotSystem(t *testing.T, s float64) *linearSystem {
	t.Helper()
	one := -1 / s // the entry whose -s*one rounds to exactly 1
	for k := 0; k < 8 && -s*one != 1; k++ {
		one = math.Nextafter(one, math.Inf(k%2*2-1))
	}
	if -s*one != 1 {
		t.Fatalf("no float j has -%v*j == 1", s)
	}
	x, y, d := 2/s, 0.5/s, -10/s
	rows := [4][]struct {
		c int
		v float64
	}{
		{{1, x}, {2, one}},
		{{0, x}, {1, d}, {3, y}},
		{{0, one}, {3, x}},
		{{1, y}, {2, x}, {3, d}},
	}
	b := linalg.NewBuilder(4, 4)
	for r, es := range rows {
		for _, e := range es {
			b.Add(r, e.c, e.v)
		}
	}
	return &linearSystem{b.Build()}
}

// TestILUZeroPivotFallsBack: an ILU(0) factorization that meets a zero pivot
// leaves the stage solves to the line-preconditioned BiCGStab, which meets
// LinTol, and the failure is cached like factors are, for the whole refresh
// window (DESIGN.md §14): every step whose shift stays within refreshShift
// of the failed one solves exactly as the BiCGStab solver does, bit for bit,
// although its stage matrix has moved off the zero pivot; the first step
// past the window factors again. Every step is accepted, so u, the stage
// vectors and the predictor's history all move under the comparison.
// Integrate, run the same way, ends where the BiCGStab solver does.
func TestILUZeroPivotFallsBack(t *testing.T) {
	const h0, t1 = 0.01, 0.2
	sys := zeroPivotSystem(t, Gamma*h0)
	if _, err := linalg.NewILU0(linalg.NewShiftedOperator(sys.jac).Update(Gamma*h0, nil), nil); err == nil {
		t.Fatal("premise: ILU(0) of the first stage matrix must meet a zero pivot")
	}
	// The stepped run starts on (about) the slowest eigenvector of s*J,
	// symmetric in (0, 2) and (1, 3) with eigenvalue -0.553: h*lambda is
	// about -0.3 at these step sizes, and the first-order error estimate
	// stays below Tol 5e-2. Along the growing mode (+1.34) every step the
	// test sets is rejected at any Tol below 1.
	uSlow := linalg.Vector{1, 0.2235, 1, 0.2235}
	start := func(lin LinearSolver) (*Stepper, linalg.Vector) {
		u := uSlow.Clone()
		s, err := NewStepper(sys, u, 0, t1, Config{Tol: 5e-2, Solver: lin, H0: h0})
		if err != nil {
			t.Fatal(err)
		}
		return s, u
	}
	ilu, uI := start(ILU)
	line, uL := start(BiCGStab)
	for i, h := range []float64{h0, 1.1 * h0, 1.25 * h0, 0.8 * h0, 2 * h0} {
		ilu.h, line.h = h, h
		if err := ilu.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if err := line.Step(); err != nil {
			t.Fatalf("step %d, BiCGStab: %v", i, err)
		}
		if ilu.st.Steps != i+1 || line.st.Steps != i+1 {
			t.Fatalf("step %d: %d and %d accepted, want every step", i, ilu.st.Steps, line.st.Steps)
		}
		m := ilu.ws.op.Matrix()
		_, cached := ilu.ws.lin.ILUFor(m, ilu.ws.pcSerial, nil) // the current key: answered from the cache
		if i == 4 {
			if cached != nil || ilu.st.Factorizations != 2 {
				t.Errorf("past the window: cached %v after %d factorizations, want a fresh factor", cached, ilu.st.Factorizations)
			}
			break
		}
		if cached == nil || ilu.st.Factorizations != 1 {
			t.Fatalf("step %d: cached %v after %d factorizations, want the zero pivot of the first", i, cached, ilu.st.Factorizations)
		}
		if _, err := linalg.NewILU0(m, nil); i > 0 && err != nil {
			t.Fatalf("step %d: premise: the moved stage matrix factors (%v)", i, err)
		}
		for j := range uI {
			if math.Float64bits(uI[j]) != math.Float64bits(uL[j]) || ilu.st.LinIters != line.st.LinIters {
				t.Fatalf("step %d: u[%d] = %v after %d iterations; BiCGStab %v after %d", i, j, uI[j], ilu.st.LinIters, uL[j], line.st.LinIters)
			}
		}
	}

	// The system grows like e^(t/s), s = Gamma*h0: Integrate runs it a
	// short way.
	const tShort = 0.05
	u0 := linalg.Vector{1, 0.5, -0.25, 0.75}
	uI, uL = u0.Clone(), u0.Clone()
	stI, err := Integrate(sys, uI, 0, tShort, Config{Tol: 1e-3, Solver: ILU, H0: h0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Integrate(sys, uL, 0, tShort, Config{Tol: 1e-3, H0: h0}); err != nil {
		t.Fatal(err)
	}
	if stI.Factorizations < 2 {
		t.Errorf("%d factorizations: the run never left the failed window", stI.Factorizations)
	}
	for j := range uI {
		if math.Abs(uI[j]-uL[j]) > 1e-3*(1+math.Abs(uL[j])) {
			t.Errorf("u[%d] = %v with ILU, %v with BiCGStab", j, uI[j], uL[j])
		}
	}
}
