package linalg

// Workspace owns every buffer the iterative solvers need — the BiCGStab
// vectors, the GMRES Krylov basis and Hessenberg, and a cached ILU(0)
// factorization — so a steady-state Rosenbrock stepping loop performs no
// allocations at all. A zero-value Workspace is ready to use; buffers grow
// on demand and are reused across solves (and across systems of different
// sizes: a buffer is re-sliced when large enough, reallocated otherwise).
//
// A Workspace is not safe for concurrent use; give each goroutine its own.
type Workspace struct {
	// Shared by both BiCGStab variants.
	invD, r, rTilde, p, v, s, t, pHat, sHat Vector

	// GMRES: Krylov basis, Hessenberg columns, Givens rotations.
	basis  []Vector
	hess   [][]float64
	cs, sn []float64
	g, y   []float64
	w, z   Vector

	// Cached ILU(0) factorization, keyed on the matrix identity and the
	// caller-supplied shift key (the Rosenbrock gamma*tau).
	ilu      *ILU0
	iluSrc   *CSR
	iluKey   float64
	iluValid bool
	iluErr   error

	// team, when non-nil, parallelizes the solver kernels across its
	// workers. Results are bit-for-bit identical with any team (or none).
	team *Team

	// Phase plans of the solver prologues and iteration bodies, rebuilt at
	// each solve entry (backing arrays are reused, so steady-state
	// rebuilding allocates nothing) because they bind the caller's x and b
	// and ensure* may have re-sliced the workspace vectors.
	phInit, phS, phX Phase // BiCGStab prologue and s / x,r updates (both variants)
	phP1, phP, phT   Phase // Jacobi BiCGStab direction and t phases
	phPu, phAv, phAt Phase // ILU BiCGStab p-update and matvec+dot phases
	phR0, phArn      Phase // GMRES restart residual and Arnoldi step
	phTmp            Phase // plans bound on the spot and run at once (norms, tails, normalizations)
	sc               [scCount]float64
	karn             int // current Arnoldi column, bound into phArn
}

// Scalar slots the fused plans read through pointers; the solver loops
// store into them right before each dispatch.
const (
	scBeta = iota
	scOmegaPrev
	scNegAlpha
	scAlpha
	scOmega
	scNegOmega
	scInvNorm
	scCount
)

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// SetTeam routes the workspace's solver kernels through t (nil restores
// serial execution). The workspace does not own the team: the caller keeps
// responsibility for Close.
func (ws *Workspace) SetTeam(t *Team) { ws.team = t }

// Team returns the team set by SetTeam (nil means serial).
func (ws *Workspace) Team() *Team { return ws.team }

// grow returns v with length n, reusing its backing array when possible.
func grow(v Vector, n int) Vector {
	if cap(v) < n {
		return make(Vector, n)
	}
	return v[:n]
}

func growF(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// ensureBiCGStab sizes the BiCGStab buffers for an n-dimensional solve.
func (ws *Workspace) ensureBiCGStab(n int) {
	ws.invD = grow(ws.invD, n)
	ws.r = grow(ws.r, n)
	ws.rTilde = grow(ws.rTilde, n)
	ws.p = grow(ws.p, n)
	ws.v = grow(ws.v, n)
	ws.s = grow(ws.s, n)
	ws.t = grow(ws.t, n)
	ws.pHat = grow(ws.pHat, n)
	ws.sHat = grow(ws.sHat, n)
}

// ensureGMRES sizes the GMRES buffers for restart dimension m on an
// n-dimensional system.
func (ws *Workspace) ensureGMRES(n, m int) {
	ws.invD = grow(ws.invD, n)
	ws.w = grow(ws.w, n)
	ws.z = grow(ws.z, n)
	if cap(ws.basis) < m+1 {
		basis := make([]Vector, m+1)
		copy(basis, ws.basis)
		ws.basis = basis
	}
	ws.basis = ws.basis[:m+1]
	for i := range ws.basis {
		ws.basis[i] = grow(ws.basis[i], n)
	}
	if cap(ws.hess) < m+1 {
		hess := make([][]float64, m+1)
		copy(hess, ws.hess)
		ws.hess = hess
	}
	ws.hess = ws.hess[:m+1]
	for i := range ws.hess {
		ws.hess[i] = growF(ws.hess[i], m)
	}
	ws.cs = growF(ws.cs, m)
	ws.sn = growF(ws.sn, m)
	ws.g = growF(ws.g, m+1)
	ws.y = growF(ws.y, m)
}

// buildBiCGStabPhases (re)binds the BiCGStab phases to the workspace
// vectors and the caller's x and b. The Jacobi variant fuses a whole
// iteration into four dispatches; the ILU variant keeps the p-update and
// triangular solves as separate (level-scheduled) dispatches and fuses the
// matvec+reduction tails. Barriers appear exactly before the SpMV steps
// whose input was written earlier in the same phase.
func (ws *Workspace) buildBiCGStabPhases(a *CSR, x, b Vector, withILU bool) {
	n := len(ws.r)
	sc := &ws.sc
	in := &ws.phInit // r = b - A x, |b|^2, |r|^2, rTilde = p = r
	in.Reset(n)
	in.MulVec(a, ws.r, x)
	in.Sub(ws.r, b, ws.r)
	in.Dot(0, b, b)
	in.Dot(1, ws.r, ws.r)
	in.Copy(ws.rTilde, ws.r)
	in.Copy(ws.p, ws.r)
	if withILU {
		pu := &ws.phPu
		pu.Reset(n)
		pu.UpdateP(ws.p, ws.r, ws.v, &sc[scBeta], &sc[scOmegaPrev])
		av := &ws.phAv
		av.Reset(n)
		av.MulVec(a, ws.v, ws.pHat) // pHat written pre-dispatch: no barrier
		av.Dot(0, ws.rTilde, ws.v)
		at := &ws.phAt
		at.Reset(n)
		at.MulVec(a, ws.t, ws.sHat)
		at.Dot(0, ws.t, ws.t)
		at.Dot(1, ws.t, ws.s)
	} else {
		p1 := &ws.phP1 // first iteration: p = r came with the prologue
		p1.Reset(n)
		p1.MulElem(ws.pHat, ws.invD, ws.p)
		p1.Barrier() // SpMV reads all of pHat
		p1.MulVec(a, ws.v, ws.pHat)
		p1.Dot(0, ws.rTilde, ws.v)
		pp := &ws.phP
		pp.Reset(n)
		pp.UpdateP(ws.p, ws.r, ws.v, &sc[scBeta], &sc[scOmegaPrev])
		pp.MulElem(ws.pHat, ws.invD, ws.p)
		pp.Barrier()
		pp.MulVec(a, ws.v, ws.pHat)
		pp.Dot(0, ws.rTilde, ws.v)
		tt := &ws.phT
		tt.Reset(n)
		tt.MulElem(ws.sHat, ws.invD, ws.s)
		tt.Barrier()
		tt.MulVec(a, ws.t, ws.sHat)
		tt.Dot(0, ws.t, ws.t)
		tt.Dot(1, ws.t, ws.s)
	}
	sp := &ws.phS
	sp.Reset(n)
	sp.AXPYTo(ws.s, ws.r, &sc[scNegAlpha], ws.v)
	sp.Dot(0, ws.s, ws.s)
	xp := &ws.phX
	xp.Reset(n)
	xp.AXPY2(x, &sc[scAlpha], ws.pHat, &sc[scOmega], ws.sHat)
	xp.AXPYTo(ws.r, ws.s, &sc[scNegOmega], ws.t)
	xp.Dot(0, ws.r, ws.r)
	xp.Dot(1, ws.rTilde, ws.r) // next iteration's rho, one dispatch early
}

// buildGMRESPhases (re)binds the GMRES restart-residual phase and the
// Arnoldi step: preconditioner application, SpMV, and the full modified
// Gram-Schmidt sweep against the Krylov basis in one dispatch, with ws.karn
// selecting the column.
func (ws *Workspace) buildGMRESPhases(a *CSR, x, b Vector) {
	n := len(ws.w)
	r0 := &ws.phR0 // v0 = b - A x and its squared norm
	r0.Reset(n)
	r0.MulVec(a, ws.w, x)
	r0.Sub(ws.basis[0], b, ws.w)
	r0.Dot(0, ws.basis[0], ws.basis[0])
	ph := &ws.phArn
	ph.Reset(n)
	ph.MulElemAt(ws.z, ws.invD, ws.basis, &ws.karn)
	ph.Barrier() // SpMV reads all of z
	ph.MulVec(a, ws.w, ws.z)
	ph.MGS(ws.w, ws.basis, ws.hess, &ws.karn)
}

// scaleInto runs dst = s*src as a one-step phase: the normalization of a
// new Krylov basis vector.
//
//vetsparse:allocfree
func (ws *Workspace) scaleInto(dst Vector, s float64, src Vector, ops *Ops) {
	ws.sc[scInvNorm] = s
	ph := &ws.phTmp
	ph.Reset(len(dst))
	ph.ScaleTo(dst, &ws.sc[scInvNorm], src)
	ws.team.RunPhase(ph)
	ops.Add(ph.Flops())
}

// ILUFor returns the ILU(0) factorization of a, reusing the cached factors
// when both the matrix identity and the shift key match the previous call
// — the Rosenbrock step-size controller frequently keeps tau, and then the
// factorization is free. When the key changes but the matrix (and hence
// its pattern) is the same, the factorization is redone in place with no
// allocation. A factorization failure (zero pivot) is cached under the
// same key so repeated stage solves do not retry it.
func (ws *Workspace) ILUFor(a *CSR, key float64, ops *Ops) (*ILU0, error) {
	if ws.iluValid && ws.iluSrc == a && ws.iluKey == key {
		return ws.ilu, ws.iluErr
	}
	if ws.ilu != nil && ws.iluSrc == a {
		ws.iluErr = ws.ilu.Refactor(a, ops)
	} else {
		ws.ilu, ws.iluErr = NewILU0(a, ops)
		if ws.ilu == nil {
			// Structural failure (no diagonal / not square): do not pin
			// the cache to a broken factor object.
			ws.iluSrc, ws.iluValid = nil, false
			return nil, ws.iluErr
		}
		ws.iluSrc = a
	}
	ws.iluKey, ws.iluValid = key, true
	return ws.ilu, ws.iluErr
}
