package linalg

import (
	"fmt"
	"math"
)

// GMRES solves A x = b with restarted GMRES(m), Jacobi preconditioned (on
// the right), to relative residual tol. x is the initial guess and is
// overwritten. restart <= 0 picks 30; maxIter <= 0 picks 4*n total
// iterations. GMRES is the classic alternative to BiCGStab for the
// nonsymmetric advection-diffusion systems of the Rosenbrock stages: it
// never breaks down and its residual is monotone, at the price of storing
// the Krylov basis. It allocates a fresh workspace (including the basis);
// hot loops should hold a Workspace and call its GMRES method instead.
func GMRES(a *CSR, x, b Vector, tol float64, restart, maxIter int, ops *Ops) (SolveStats, error) {
	return NewWorkspace().GMRES(a, x, b, tol, restart, maxIter, ops)
}

// GMRES is the workspace-pooled variant of the package-level GMRES: the
// Krylov basis, Hessenberg and rotation buffers come from ws and are
// reused across calls, so steady-state calls allocate nothing.
//
//vetsparse:allocfree
func (ws *Workspace) GMRES(a *CSR, x, b Vector, tol float64, restart, maxIter int, ops *Ops) (SolveStats, error) {
	n := a.Rows
	if a.Cols != n || len(x) != n || len(b) != n {
		panic(fmt.Sprintf("linalg: GMRES dims %dx%d, x[%d], b[%d]", a.Rows, a.Cols, len(x), len(b)))
	}
	if restart <= 0 {
		restart = 30
	}
	if restart > n {
		restart = n
	}
	if maxIter <= 0 {
		maxIter = 4 * n
		if maxIter < 100 {
			maxIter = 100
		}
	}
	m := restart
	ws.ensureGMRES(n, m)
	invD := ws.invD
	a.Diagonal(invD)
	for i, d := range invD {
		if d == 0 {
			invD[i] = 1
		} else {
			invD[i] = 1 / d
		}
	}
	ops.Add(int64(n))

	tm := ws.team
	tmp := &ws.phTmp
	tmp.Reset(n)
	tmp.Dot(0, b, b)
	tm.RunPhase(tmp)
	ops.Add(tmp.Flops())
	bNorm := math.Sqrt(tmp.Fold(0))
	if bNorm == 0 {
		x.Fill(0)
		return SolveStats{}, nil
	}
	ws.buildGMRESPhases(a, x, b)

	// Krylov basis and Hessenberg in column-major slices.
	v := ws.basis
	h := ws.hess
	cs := ws.cs
	sn := ws.sn
	g := ws.g
	w := ws.w
	z := ws.z

	total := 0
	for total < maxIter {
		// r0 = b - A x.
		tm.RunPhase(&ws.phR0)
		ops.Add(ws.phR0.Flops())
		beta := math.Sqrt(ws.phR0.Fold(0))
		if beta/bNorm <= tol {
			return SolveStats{Iterations: total, Residual: beta / bNorm}, nil
		}
		ws.scaleInto(v[0], 1/beta, v[0], ops)
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		k := 0
		for ; k < m && total < maxIter; k++ {
			total++
			// One dispatch per column covers w = A M^-1 v_k (right
			// preconditioning), the whole modified Gram-Schmidt sweep and
			// the partials of the new column's norm. The sweep's charge is
			// per column: k+1 dots and AXPYs plus the final norm.
			ws.karn = k
			tm.RunPhase(&ws.phArn)
			ops.Add(ws.phArn.Flops())
			ops.Add(int64(k+1)*4*int64(n) + 2*int64(n))
			h[k+1][k] = math.Sqrt(ws.phArn.Fold((k + 1) & 1))
			if h[k+1][k] > 1e-300 {
				ws.scaleInto(v[k+1], 1/h[k+1][k], w, ops)
			} else {
				v[k+1].Fill(0) // happy breakdown: exact solution in span
			}
			// Apply previous Givens rotations to the new column.
			for i := 0; i < k; i++ {
				t := cs[i]*h[i][k] + sn[i]*h[i+1][k]
				h[i+1][k] = -sn[i]*h[i][k] + cs[i]*h[i+1][k]
				h[i][k] = t
			}
			// New rotation to annihilate h[k+1][k].
			denom := math.Hypot(h[k][k], h[k+1][k])
			if denom == 0 {
				cs[k], sn[k] = 1, 0
			} else {
				cs[k] = h[k][k] / denom
				sn[k] = h[k+1][k] / denom
			}
			h[k][k] = cs[k]*h[k][k] + sn[k]*h[k+1][k]
			h[k+1][k] = 0
			g[k+1] = -sn[k] * g[k]
			g[k] = cs[k] * g[k]
			ops.Add(int64(8 * k))
			if math.Abs(g[k+1])/bNorm <= tol {
				k++
				break
			}
		}
		// Solve the k x k triangular system h y = g.
		y := ws.y[:k]
		for i := k - 1; i >= 0; i-- {
			s := g[i]
			for j := i + 1; j < k; j++ {
				s -= h[i][j] * y[j]
			}
			if h[i][i] == 0 {
				return SolveStats{Iterations: total}, ErrBreakdown
			}
			y[i] = s / h[i][i]
		}
		// x += M^-1 (V y), then the true residual w = b - A x and its norm,
		// in one dispatch: the plan is as long as the cycle ran.
		z.Fill(0)
		tmp.Reset(n)
		for j := range y {
			tmp.AXPY(z, &y[j], v[j])
		}
		tmp.MulElemAdd(x, invD, z)
		tmp.Barrier() // SpMV reads all of x
		tmp.MulVec(a, w, x)
		tmp.Sub(w, b, w)
		tmp.Dot(0, w, w)
		tm.RunPhase(tmp)
		ops.Add(tmp.Flops())
		if res := math.Sqrt(tmp.Fold(0)) / bNorm; res <= tol {
			return SolveStats{Iterations: total, Residual: res}, nil
		}
	}
	return SolveStats{Iterations: total, Residual: math.NaN()}, ErrNoConvergence
}
