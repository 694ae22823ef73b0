package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned when an iterative solve exhausts its
// iteration budget without meeting the tolerance.
var ErrNoConvergence = errors.New("linalg: iteration did not converge")

// ErrBreakdown is returned when BiCGStab hits a true breakdown (rho or
// omega collapses) before converging.
var ErrBreakdown = errors.New("linalg: BiCGStab breakdown")

// SolveStats reports the cost of an iterative solve.
type SolveStats struct {
	Iterations int
	Residual   float64 // final relative residual
}

// BiCGStab solves A x = b with the BiCGStab iteration to relative residual
// tol, preconditioned by the exact solve of A's tridiagonal part along its
// stronger-coupled line offset — on a grid operator, every grid line of one
// direction solved directly. x is used as the initial guess and overwritten
// with the solution. maxIter <= 0 means 4*n. It allocates a fresh
// workspace; hot loops should hold a Workspace and call its BiCGStab method
// instead.
func BiCGStab(a *CSR, x, b Vector, tol float64, maxIter int, ops *Ops) (SolveStats, error) {
	return NewWorkspace().BiCGStab(a, x, b, tol, maxIter, ops)
}

// BiCGStab is the workspace-pooled variant of the package-level BiCGStab:
// all solver vectors come from ws, so steady-state calls allocate nothing;
// its preconditioner is factored afresh (a NaN key to BiCGStabLines).
//
//vetsparse:allocfree
func (ws *Workspace) BiCGStab(a *CSR, x, b Vector, tol float64, maxIter int, ops *Ops) (SolveStats, error) {
	return ws.BiCGStabLines(a, x, b, tol, maxIter, math.NaN(), ops)
}

// BiCGStabLines is BiCGStab with its line factor cached in ws keyed on
// (a, key), as BiCGStabILU caches ILU(0): a repeated key reuses the factor
// even after a's values moved — the Rosenbrock integrator passes one key per
// refresh — and a new key refactors in place with no allocation.
//
//vetsparse:allocfree
func (ws *Workspace) BiCGStabLines(a *CSR, x, b Vector, tol float64, maxIter int, key float64, ops *Ops) (SolveStats, error) {
	return ws.bicgstab(a, nil, x, b, tol, maxIter, key, ops)
}

// bicgstab is the one BiCGStab body behind both preconditioners: f is the
// ILU(0) factorization of a, or nil for the line factor of a under key. An
// iteration is five phase runs around two preconditioner applications:
// phase Pu updates the search direction, M^-1 gives pHat, phase Av
// multiplies it and reduces the denominator dot as it writes v; phase S
// forms s and its norm, M^-1 gives sHat, phase At multiplies it and reduces
// both dots of t; phase X updates x and r, reduces the residual norm and —
// one run early — the next iteration's rho, charged only once an iteration
// consumes it. A breakdown test fails on NaN as well as on a collapse, and a non-finite
// norm of b or of the residual is a breakdown too, so a non-finite operand
// ends the solve rather than iterating to maxIter.
//
//vetsparse:allocfree
func (ws *Workspace) bicgstab(a *CSR, f *ILU0, x, b Vector, tol float64, maxIter int, key float64, ops *Ops) (SolveStats, error) {
	n := a.Rows
	if a.Cols != n || len(x) != n || len(b) != n {
		panic(fmt.Sprintf("linalg: BiCGStab dims %dx%d, x[%d], b[%d]", a.Rows, a.Cols, len(x), len(b)))
	}
	if maxIter <= 0 {
		maxIter = 4 * n
		if maxIter < 100 {
			maxIter = 100
		}
	}
	ws.ensureBiCGStab(n)
	if f == nil {
		ws.lines.factorFor(a, key, ops)
	}
	ws.buildBiCGStabPhases(a, x, b)
	sc := &ws.sc
	nn := int64(n)

	// Prologue, one phase: r = b - A x, |b|^2, |r|^2, rTilde = p = r. The
	// charges are those of MulVec, Sub, Norm2(b), Norm2(r) cut off at each
	// of the two exits that need no iteration.
	ws.phInit.Run()
	ops.Add(ws.phInit.Flops() - 2*nn)
	bNorm := math.Sqrt(ws.phInit.Fold(0))
	if bNorm == 0 {
		x.Fill(0)
		return SolveStats{}, nil
	}
	ops.Add(2 * nn)
	rn := math.Sqrt(ws.phInit.Fold(1))
	if !finite(bNorm) || !finite(rn) {
		return SolveStats{Residual: math.NaN()}, ErrBreakdown
	}
	if rn/bNorm <= tol {
		return SolveStats{Residual: rn / bNorm}, nil
	}

	rho, alpha, omega := 1.0, 1.0, 1.0
	for it := 1; it <= maxIter; it++ {
		rhoNew := ws.phX.Fold(1)
		if it == 1 {
			// rTilde is a copy of r, so <rTilde, r> is bit for bit the
			// prologue's <r, r>.
			rhoNew = ws.phInit.Fold(1)
		}
		ops.Add(2 * nn)
		if !(math.Abs(rhoNew) >= 1e-300) {
			return SolveStats{Iterations: it}, ErrBreakdown
		}
		sc[scBeta] = (rhoNew / rho) * (alpha / omega)
		sc[scOmegaPrev] = omega
		rho = rhoNew
		if it > 1 { // p = r came with the prologue
			ws.phPu.Run()
			ops.Add(ws.phPu.Flops())
		}
		ws.precondition(f, ws.pHat, ws.p, ops)
		ws.phAv.Run()
		ops.Add(ws.phAv.Flops())
		den := ws.phAv.Fold(0)
		if !(math.Abs(den) >= 1e-300) {
			return SolveStats{Iterations: it}, ErrBreakdown
		}
		alpha = rho / den
		sc[scAlpha], sc[scNegAlpha] = alpha, -alpha
		ws.phS.Run()
		ops.Add(ws.phS.Flops())
		if sn := math.Sqrt(ws.phS.Fold(0)); sn/bNorm <= tol {
			// Converged at the half step: x += alpha*pHat and out.
			half := &ws.phTmp
			half.Reset(n)
			half.AXPY(x, &sc[scAlpha], ws.pHat)
			half.Run()
			ops.Add(half.Flops())
			return SolveStats{Iterations: it, Residual: sn / bNorm}, nil
		}
		ws.precondition(f, ws.sHat, ws.s, ops)
		ws.phAt.Run()
		ops.Add(ws.phAt.Flops())
		tt := ws.phAt.Fold(0)
		if !(tt > 0) { // a sum of squares: zero or NaN
			return SolveStats{Iterations: it}, ErrBreakdown
		}
		omega = ws.phAt.Fold(1) / tt
		sc[scOmega] = omega
		ws.phX.Run()
		ops.Add(ws.phX.Flops() - 2*nn)
		rn = math.Sqrt(ws.phX.Fold(0))
		if rn/bNorm <= tol {
			return SolveStats{Iterations: it, Residual: rn / bNorm}, nil
		}
		if !finite(rn) || !(math.Abs(omega) >= 1e-300) {
			return SolveStats{Iterations: it}, ErrBreakdown
		}
	}
	return SolveStats{Iterations: maxIter, Residual: math.NaN()}, ErrNoConvergence
}

// precondition applies BiCGStab's preconditioner, dst = M^-1 src: the
// ILU(0) factors f, or without them the line factor.
//
//vetsparse:allocfree
func (ws *Workspace) precondition(f *ILU0, dst, src Vector, ops *Ops) {
	if f != nil {
		f.Solve(dst, src, ops)
		return
	}
	ws.lines.solve(dst, src, ops)
}

// finite reports whether v is neither infinite nor NaN.
func finite(v float64) bool { return v-v == 0 }

// SolveTridiag solves a tridiagonal system in place with the Thomas
// algorithm: sub (length n, sub[0] unused), diag (length n), super (length
// n, super[n-1] unused), rhs (length n). The solution overwrites rhs; diag
// and rhs are clobbered.
func SolveTridiag(sub, diag, super, rhs Vector, ops *Ops) error {
	n := len(diag)
	if len(sub) != n || len(super) != n || len(rhs) != n {
		panic("linalg: SolveTridiag length mismatch")
	}
	for i := 1; i < n; i++ {
		if diag[i-1] == 0 {
			return errors.New("linalg: tridiagonal pivot is zero")
		}
		w := sub[i] / diag[i-1]
		diag[i] -= w * super[i-1]
		rhs[i] -= w * rhs[i-1]
	}
	if diag[n-1] == 0 {
		return errors.New("linalg: tridiagonal pivot is zero")
	}
	rhs[n-1] /= diag[n-1]
	for i := n - 2; i >= 0; i-- {
		rhs[i] = (rhs[i] - super[i]*rhs[i+1]) / diag[i]
	}
	ops.Add(8 * int64(n))
	return nil
}
