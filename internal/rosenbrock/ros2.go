// Package rosenbrock implements the adaptive Rosenbrock time integrator
// that the paper's subsolve routine spends its time in: the two-stage,
// second-order, L-stable ROS2 scheme with an embedded first-order error
// estimate driving the step-size controller, and a Krylov solver for the
// stage systems (I - gamma*tau*J) k = rhs: BiCGStab, preconditioned along
// the grid lines by default or by ILU(0).
//
// The original application "built up again and again" its system matrix;
// the port no longer does. A stage system is solved in the scaled form
// (sigma*I - J) k = sigma*rhs, sigma = 1/(gamma*tau) (Hairer & Wanner,
// Solving ODEs II, §IV.7): the matrix keeps J's merged sparsity pattern and
// its off-diagonals across the whole integration, and a step-size change
// rewrites only the diagonal in place (linalg.ShiftedOperator). All solver
// buffers — the BiCGStab vectors, the line and ILU(0) factors — live in a
// reusable Workspace, and either preconditioner is refactored only once
// gamma*tau drifts past
// refreshShift. Each stage solve starts from a prediction: the polynomial
// extrapolation of the last predOrder accepted steps' stage vectors to the
// new step (DESIGN.md §17). The solves stop on a residual relative to the
// right-hand side, not to the first residual, so a better start removes
// iterations and moves the answer only within the inner tolerance. In
// steady state one step allocates nothing. All work is accounted into a
// linalg.Ops counter so the cluster work model can be calibrated against
// real runs.
package rosenbrock

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Gamma is the ROS2 coefficient 1 + 1/sqrt(2), which makes the scheme
// L-stable.
var Gamma = 1 + 1/math.Sqrt2

// System is a semi-discrete ODE system du/dt = F(t, u) with a constant
// Jacobian (the paper's problem is linear, so J = A exactly).
type System interface {
	// N returns the number of unknowns.
	N() int
	// F evaluates out = F(t, u).
	F(t float64, u, out linalg.Vector, ops *linalg.Ops)
	// Jacobian returns dF/du (not modified by the integrator).
	Jacobian() *linalg.CSR
}

// Config tunes the integration.
type Config struct {
	// Tol is the local error tolerance (the paper's le_tol, argv[3]); it is
	// used as both absolute and relative weight in the WRMS error norm.
	Tol float64
	// H0 is the initial step size; 0 picks (t1-t0)/100.
	H0 float64
	// HMin aborts the integration when the controller pushes the step
	// below it; 0 picks 1e-12*(t1-t0).
	HMin float64
	// MaxSteps bounds accepted+rejected steps; 0 means 10 million.
	MaxSteps int
	// LinTol is the relative residual the stage solves stop at, whichever
	// Solver runs them; 0 picks linTolFactor*Tol.
	LinTol float64
	// Solver selects the inner linear solver; the zero value is BiCGStab.
	Solver LinearSolver
	// Work is an optional reusable workspace. Passing the same Workspace
	// to successive integrations (as the sequential sparse-grid driver
	// does across its grid family) reuses the solver buffers instead of
	// reallocating them; nil allocates a fresh workspace internally.
	Work *Workspace
}

// LinearSolver selects how the (I - gamma*tau*J) stage systems are solved.
type LinearSolver int

const (
	// BiCGStab is the default: BiCGStab preconditioned by direct solves
	// along the grid lines of the stronger coupled direction, refactored
	// only when gamma*tau drifts past refreshShift.
	BiCGStab LinearSolver = iota
	// ILU uses BiCGStab preconditioned with an ILU(0) factorization of
	// the stage matrix, which couples both directions. The factorization
	// is redone (in place) only when gamma*tau drifts past refreshShift.
	ILU
)

// refreshShift is how far gamma*tau may drift from the shift the BiCGStab
// preconditioner — the line factor or ILU(0) — was computed at before a step
// refactors it: CVODE's DGMAX (Hindmarsh et al., ACM TOMS 31(3), 2005). M
// itself is always exact.
const refreshShift = 0.3

// linTolFactor is the default LinTol as a share of Tol. A step is accepted
// with a local error up to Tol, so the residual the time stepping can use
// scales with Tol: a fixed 1e-8 solves for five to six digits nobody reads
// at the paper's 1e-3. 1e-2 is the largest of {1e-3, 1e-2, 1e-1} that
// leaves every step-size decision, and the error against a known solution,
// where a 1e-8 solve puts them (DESIGN.md §13).
const linTolFactor = 1e-2

// predOrder is how many accepted steps the stage solves' starting values
// are extrapolated from, by a polynomial in the step number (Hairer &
// Wanner, Solving ODEs II, §IV.8): the fastest order of {1, 2, 3, 4} on
// single-core family time, all of which keep every step (DESIGN.md §17).
const predOrder = 4

func (s LinearSolver) String() string {
	switch s {
	case ILU:
		return "ILU-BiCGStab"
	}
	return "BiCGStab"
}

// Workspace holds every buffer a Rosenbrock integration needs: the stage
// and controller vectors, the shifted stage operator, and the inner linear
// solver's pooled workspace (Krylov vectors, line and ILU factors). A
// zero-value Workspace is ready to use; buffers grow on demand and are
// reused across integrations, including integrations of different systems
// and sizes.
// A Workspace is not safe for concurrent use; give each goroutine its own.
type Workspace struct {
	lin linalg.Workspace

	f1, f2, k1, k2, u1, uNew linalg.Vector

	// hist is a ring of the last predOrder accepted steps' k1 and k2, the
	// predictor's nodes. An accepted step swaps its k1 and k2 into the
	// ring, so their buffers move between the ring and the stage vectors.
	hist [predOrder][2]linalg.Vector

	// op is the cached stage matrix (1/s)*I - J; rebuilt only when the
	// integration targets a different Jacobian.
	op *linalg.ShiftedOperator

	// pcSerial numbers the preconditioner refreshes of every run on this
	// workspace: the factor caches' key, never reused, so no run sees
	// another's factors.
	pcSerial float64
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Lin exposes the inner linear-solver workspace (for direct solver calls
// sharing the pool).
func (w *Workspace) Lin() *linalg.Workspace { return &w.lin }

func growVec(v *linalg.Vector, n int) {
	if cap(*v) < n {
		*v = linalg.NewVector(n)
		return
	}
	*v = (*v)[:n]
}

// ensure sizes the stage vectors for n unknowns and binds the shifted
// operator to jac (reusing the previous pattern when it is the same
// matrix), invalidated so that every integration writes and counts M afresh.
func (w *Workspace) ensure(n int, jac *linalg.CSR) {
	growVec(&w.f1, n)
	growVec(&w.f2, n)
	growVec(&w.k1, n)
	growVec(&w.k2, n)
	growVec(&w.u1, n)
	growVec(&w.uNew, n)
	for j := range w.hist {
		growVec(&w.hist[j][0], n)
		growVec(&w.hist[j][1], n)
	}
	if w.op == nil || w.op.A() != jac {
		w.op = linalg.NewShiftedOperator(jac)
	}
	w.op.Invalidate()
}

// solve dispatches one stage system to the configured preconditioner,
// pooling all buffers in ws. key names its factors, line or ILU(0): a key
// the cache holds reuses them, a new one refactors from m.
//
//vetsparse:allocfree
func (c Config) solve(ws *Workspace, m *linalg.CSR, x, b linalg.Vector, linTol, key float64, ops *linalg.Ops) (linalg.SolveStats, error) {
	if c.Solver == ILU {
		return ws.lin.BiCGStabILU(m, x, b, linTol, 0, key, ops)
	}
	return ws.lin.BiCGStabLines(m, x, b, linTol, 0, key, ops)
}

// Stats reports the cost of an integration.
type Stats struct {
	Steps          int // accepted steps
	Rejected       int // rejected steps
	FEvals         int
	LinIters       int // total iterations of the stage solves
	Factorizations int // preconditioner factorizations asked for, line or ILU(0)
	Ops            linalg.Ops
}

// ErrStepTooSmall is returned when the controller underflows HMin.
var ErrStepTooSmall = errors.New("rosenbrock: step size underflow")

// ErrTooManySteps is returned when MaxSteps is exhausted before t1.
var ErrTooManySteps = errors.New("rosenbrock: step budget exhausted")

// Stepper drives one integration step by step: NewStepper validates and
// prepares the workspace, and each Step call attempts one time step
// (accepted or rejected). Integrate is the run-to-completion wrapper. The
// explicit form exists so callers (and the steady-state benchmarks) can
// observe and meter the per-step hot loop directly.
type Stepper struct {
	sys System
	cfg Config
	u   linalg.Vector

	t, t1    float64
	h, hMin  float64
	linTol   float64
	maxSteps int
	pcShift  float64 // gamma*tau the preconditioner was factored at; NaN before

	// nHist counts the accepted steps recorded in the workspace's ring, the
	// i-th (from 0) into slot i mod predOrder. It starts at zero with the
	// Stepper, so no run reads a slot another run wrote. wt[j] is ring
	// slot j's predictor weight for the step under way.
	nHist int
	wt    [predOrder]float64

	ws *Workspace
	st Stats
}

// NewStepper prepares an integration of sys from t0 to t1 advancing u in
// place. The configuration is validated exactly as Integrate does.
func NewStepper(sys System, u linalg.Vector, t0, t1 float64, cfg Config) (*Stepper, error) {
	n := sys.N()
	if len(u) != n {
		panic(fmt.Sprintf("rosenbrock: u has %d entries for system of %d", len(u), n))
	}
	if math.IsNaN(t0) || math.IsInf(t0, 0) {
		return nil, fmt.Errorf("rosenbrock: t0 %g must be finite", t0)
	}
	if math.IsNaN(t1) || math.IsInf(t1, 0) {
		return nil, fmt.Errorf("rosenbrock: t1 %g must be finite", t1)
	}
	if t1 < t0 {
		return nil, fmt.Errorf("rosenbrock: t1 %g < t0 %g", t1, t0)
	}
	s := &Stepper{sys: sys, cfg: cfg, u: u, t: t0, t1: t1, pcShift: math.NaN()}
	if t1 == t0 {
		return s, nil // already done; config is irrelevant, as before
	}
	if math.IsNaN(cfg.Tol) || math.IsInf(cfg.Tol, 1) || cfg.Tol <= 0 {
		return nil, fmt.Errorf("rosenbrock: Tol %g must be a finite positive number", cfg.Tol)
	}
	if math.IsNaN(cfg.LinTol) || math.IsInf(cfg.LinTol, 1) || cfg.LinTol < 0 {
		return nil, fmt.Errorf("rosenbrock: LinTol %g must be finite and not negative", cfg.LinTol)
	}
	if math.IsNaN(cfg.H0) || math.IsInf(cfg.H0, 1) {
		return nil, fmt.Errorf("rosenbrock: H0 %g must be finite", cfg.H0)
	}
	if math.IsNaN(cfg.HMin) || math.IsInf(cfg.HMin, 1) {
		return nil, fmt.Errorf("rosenbrock: HMin %g must be finite", cfg.HMin)
	}
	span := t1 - t0
	s.h = cfg.H0
	if s.h <= 0 {
		s.h = span / 100
	}
	s.hMin = cfg.HMin
	if s.hMin <= 0 {
		s.hMin = 1e-12 * span
	}
	s.maxSteps = cfg.MaxSteps
	if s.maxSteps <= 0 {
		s.maxSteps = 10_000_000
	}
	s.linTol = cfg.LinTol
	if s.linTol <= 0 {
		s.linTol = linTolFactor * cfg.Tol
	}
	s.ws = cfg.Work
	if s.ws == nil {
		s.ws = NewWorkspace()
	}
	s.ws.ensure(n, sys.Jacobian())
	return s, nil
}

// Done reports whether the integration has reached t1.
func (s *Stepper) Done() bool { return s.t >= s.t1 }

// T returns the current integration time.
func (s *Stepper) T() float64 { return s.t }

// Stats returns the cost statistics accumulated so far.
func (s *Stepper) Stats() Stats { return s.st }

// predictWeights writes the order-q extrapolation's weights into wt. The
// abscissa is the step number: the step a back, in slot (nHist-a) mod
// predOrder, gets the Lagrange basis at the next step number over the q
// before it, (-1)^(a+1)*C(q, a) — the rows (1), (2, -1),
// (3, -3, 1), (4, -6, 4, -1), all exact (DESIGN.md §17).
//
//vetsparse:allocfree
func (s *Stepper) predictWeights(q int) {
	c := 1.0
	for a := 1; a <= q; a++ {
		c = c * float64(q-a+1) / float64(a)
		s.wt[(s.nHist-a)%predOrder] = c
		c = -c
	}
}

// predict writes k = the initial guess of stage st (0: k1, 1: k2) from the
// ring's first q slots, each times its weight: sum_j wt[j]*hist[j][st],
// summed left to right in one sweep. With q = 0 the guess is the unscaled
// right-hand side rhs, the explicit value that M ~ I for a small gamma*tau
// makes a fair start.
//
//vetsparse:allocfree
func (s *Stepper) predict(q, st int, k, rhs linalg.Vector) {
	if q == 0 {
		copy(k, rhs)
		return
	}
	var nodes [predOrder]linalg.Vector
	for j := range q {
		nodes[j] = s.ws.hist[j][st]
	}
	k.SetLinComb(s.wt[:q], nodes[:q], &s.st.Ops)
}

// Step attempts one time step: both ROS2 stages, the embedded error
// estimate, and the controller update. An accepted step advances u and t;
// a rejected step only shrinks h. Calling Step after Done is a no-op. In
// steady state (workspace warm, step size held or varied) it allocates
// nothing.
//
//vetsparse:allocfree
func (s *Stepper) Step() error {
	if s.Done() {
		return nil
	}
	if s.st.Steps+s.st.Rejected >= s.maxSteps {
		return ErrTooManySteps
	}
	ops := &s.st.Ops
	ws := s.ws
	u := s.u
	tau := math.Min(s.h, s.t1-s.t)
	// M = I - gamma*tau*J, solved as m = M/(gamma*tau) against right-hand
	// sides scaled by sigma = 1/(gamma*tau): a step rewrites m's diagonal
	// alone. The preconditioner follows only once the shift has drifted.
	shift := Gamma * tau
	m := ws.op.Update(shift, ops)
	sigma := 1 / shift
	if !(math.Abs(shift/s.pcShift-1) <= refreshShift) {
		s.pcShift = shift
		ws.pcSerial++
		s.st.Factorizations++
	}

	// Both stages start from the extrapolation of the recorded steps' stage
	// vectors, with as many of them as there are, up to predOrder.
	q := min(s.nHist, predOrder)
	s.predictWeights(q)

	// Stage 1: M k1 = F(t, u), from the predicted k1, against sigma*f1.
	s.sys.F(s.t, u, ws.f1, ops)
	s.st.FEvals++
	s.predict(q, 0, ws.k1, ws.f1)
	ws.f1.SetScaled(sigma, ws.f1, ops)
	s1, err := s.cfg.solve(ws, m, ws.k1, ws.f1, s.linTol, ws.pcSerial, ops)
	s.st.LinIters += s1.Iterations
	if err != nil {
		return fmt.Errorf("rosenbrock: stage 1 at t=%g tau=%g: %w", s.t, tau, err)
	}

	// Stage 2: M k2 = F(t+tau, u + tau*k1) - 2 k1, likewise.
	ws.u1.SetAXPY(u, tau, ws.k1, ops)
	s.sys.F(s.t+tau, ws.u1, ws.f2, ops)
	s.st.FEvals++
	ws.f2.AXPY(-2, ws.k1, ops)
	s.predict(q, 1, ws.k2, ws.f2)
	ws.f2.SetScaled(sigma, ws.f2, ops)
	s2, err := s.cfg.solve(ws, m, ws.k2, ws.f2, s.linTol, ws.pcSerial, ops)
	s.st.LinIters += s2.Iterations
	if err != nil {
		return fmt.Errorf("rosenbrock: stage 2 at t=%g tau=%g: %w", s.t, tau, err)
	}

	// Candidate solution and the WRMS norm of the embedded error estimate,
	// in one sweep: u_{n+1} = u + 1.5 tau k1 + 0.5 tau k2 and
	// est = (0.5 tau)(k1 + 1*k2), bit-identical to the direct expression
	// (1*x is exact, and Go associates 0.5*tau*(...) leftward).
	errNorm := ws.uNew.SetAXPBYWRMS(u, 1.5*tau, ws.k1, 0.5*tau, ws.k2, 0.5*tau, s.cfg.Tol, s.cfg.Tol, ops)
	if errNorm <= 1 {
		// Only an accepted step enters the history, over its oldest entry:
		// its k1 and k2 swap places with that entry's, which the next
		// step's predictions overwrite.
		slot := &ws.hist[s.nHist%predOrder]
		copy(u, ws.uNew)
		ws.k1, slot[0] = slot[0], ws.k1
		ws.k2, slot[1] = slot[1], ws.k2
		s.nHist++
		s.t += tau
		s.st.Steps++
	} else {
		s.st.Rejected++
	}
	// Standard order-2 controller with safety factor and clamps.
	factor := 0.8 * math.Pow(math.Max(errNorm, 1e-10), -0.5)
	factor = math.Min(5, math.Max(0.2, factor))
	s.h = tau * factor
	if s.h < s.hMin {
		return fmt.Errorf("%w: h=%g at t=%g", ErrStepTooSmall, s.h, s.t)
	}
	return nil
}

// Integrate advances u from t0 to t1 in place and returns the stats.
func Integrate(sys System, u linalg.Vector, t0, t1 float64, cfg Config) (Stats, error) {
	s, err := NewStepper(sys, u, t0, t1, cfg)
	if err != nil {
		return Stats{}, err
	}
	for !s.Done() {
		if err := s.Step(); err != nil {
			return s.st, err
		}
	}
	return s.st, nil
}
