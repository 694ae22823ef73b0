package linalg

// Workspace owns every buffer the iterative solvers need — the BiCGStab
// vectors, the GMRES Krylov basis and Hessenberg, and the cached line and
// ILU(0) factors — so a steady-state Rosenbrock stepping loop
// performs no allocations at all. A zero-value Workspace is ready to use;
// buffers grow on demand and are reused across solves (and across systems
// of different sizes: a buffer is re-sliced when large enough, reallocated
// otherwise).
//
// A Workspace is not safe for concurrent use; give each goroutine its own.
type Workspace struct {
	// Shared by both BiCGStab preconditioners; the line factor is cached
	// under the caller's key (BiCGStabLines).
	r, rTilde, p, v, s, t, pHat, sHat Vector
	lines                             lineFactor

	// GMRES: Jacobi diagonal, Krylov basis, Hessenberg columns, Givens
	// rotations.
	invD   Vector
	basis  []Vector
	hess   [][]float64
	cs, sn []float64
	g, y   []float64
	w, z   Vector

	// Cached ILU(0) factorization, keyed on the matrix identity and a
	// caller-supplied key (ILUFor).
	ilu      *ILU0
	iluSrc   *CSR
	iluKey   float64
	iluValid bool
	iluErr   error

	// team, when non-nil, parallelizes the solver kernels across its
	// workers. Results are bit-for-bit identical with any team (or none).
	team *Team

	// Phase plans of the solver prologues and iteration bodies. A family's
	// plans are built when its planKey changes; a solve that finds them
	// current only rebinds the steps naming the caller's x and b.
	phInit, phPu, phAv Phase // BiCGStab prologue, direction update, A*pHat with its dot
	phS, phAt, phX     Phase // BiCGStab s step, A*sHat with its dots, x/r step
	phR0, phArn        Phase // GMRES restart residual and Arnoldi step
	phTmp              Phase // plans bound on the spot and run at once (norms, tails, normalizations)
	bicg, gmres        planKey
	sc                 [scCount]float64
	karn               int // current Arnoldi column, bound into phArn
}

// planKey is what a solver family's plans were built for: the matrix (by
// identity — a ShiftedOperator rewrites values in place) and the
// dimension. The two families share no vector, and within a family every
// other bound vector changes only together with n or m.
type planKey struct {
	a    *CSR
	n, m int       // m: GMRES basis length
	xb   [2]Vector // the caller's x and b the plans name now
}

// current reports whether the plans built under k serve (a, n, m); if so it
// points the steps of the given phases that name the previous solve's x and
// b at this one's. Otherwise it records the new key and the caller builds.
func (k *planKey) current(a *CSR, n, m int, x, b Vector, named ...*Phase) bool {
	hit := k.a == a && k.n == n && k.m == m
	if hit && n > 0 {
		for _, ph := range named {
			ph.rebind(k.xb, [2]Vector{x, b})
		}
	}
	*k = planKey{a: a, n: n, m: m, xb: [2]Vector{x, b}}
	return hit
}

// Scalar slots the fused plans read through pointers; the solver loops
// store into them right before each dispatch.
const (
	scBeta = iota
	scOmegaPrev
	scNegAlpha
	scAlpha
	scOmega
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
func grow[S ~[]E, E any](v S, n int) S {
	if cap(v) < n {
		return make(S, n)
	}
	return v[:n]
}

// ensureBiCGStab sizes the BiCGStab buffers for an n-dimensional solve.
func (ws *Workspace) ensureBiCGStab(n int) {
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
		ws.hess[i] = grow(ws.hess[i], m)
	}
	ws.cs = grow(ws.cs, m)
	ws.sn = grow(ws.sn, m)
	ws.g = grow(ws.g, m+1)
	ws.y = grow(ws.y, m)
}

// buildBiCGStabPhases binds the BiCGStab phases to the workspace vectors and
// the caller's x and b: the direction step, two products that reduce their
// dots as they write, the s step and the x/r step, one dispatch each. The
// preconditioner runs between them, so neither product reads a vector its
// own phase wrote and no phase needs a barrier.
func (ws *Workspace) buildBiCGStabPhases(a *CSR, x, b Vector) {
	n := len(ws.r)
	if ws.bicg.current(a, n, 0, x, b, &ws.phInit, &ws.phX) {
		return
	}
	sc := &ws.sc
	in := &ws.phInit // r = b - A x, |b|^2, |r|^2, rTilde = p = r
	in.Reset(n)
	in.MulVec(a, ws.r, x)
	in.Sub(ws.r, b, ws.r)
	in.Dot(0, b, b)
	in.Dot(1, ws.r, ws.r)
	in.Copy(ws.rTilde, ws.r)
	in.Copy(ws.p, ws.r)
	pu := &ws.phPu
	pu.Reset(n)
	pu.dirStep(ws.p, ws.r, ws.v, &sc[scBeta], &sc[scOmegaPrev])
	av := &ws.phAv
	av.Reset(n)
	av.mulVecDot(a, ws.v, ws.pHat, ws.rTilde, nil)
	sp := &ws.phS
	sp.Reset(n)
	sp.sStep(ws.s, ws.r, &sc[scNegAlpha], ws.v)
	at := &ws.phAt
	at.Reset(n)
	at.mulVecDot(a, ws.t, ws.sHat, ws.t, ws.s)
	xp := &ws.phX // <rTilde, r> is the next iteration's rho, one dispatch early
	xp.Reset(n)
	xp.xrStep(x, &sc[scAlpha], ws.pHat, &sc[scOmega], ws.sHat, ws.r, ws.s, ws.t, ws.rTilde)
}

// buildGMRESPhases binds the GMRES restart-residual phase and the Arnoldi
// step: preconditioner application, SpMV, and the full modified
// Gram-Schmidt sweep against the Krylov basis in one dispatch, with ws.karn
// selecting the column.
func (ws *Workspace) buildGMRESPhases(a *CSR, x, b Vector) {
	n := len(ws.w)
	if ws.gmres.current(a, n, len(ws.basis), x, b, &ws.phR0) {
		return
	}
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
// when both the matrix identity and the caller's key match the previous
// call, even if a's values have moved since: the key says which factors
// the caller wants (the Rosenbrock integrator keeps one across the steps
// they serve). When the key changes but the matrix (and hence its pattern)
// is the same, the factorization is redone in place with no allocation. A
// factorization failure (zero pivot) is cached under the same key, the
// first factorization of a matrix included, so repeated stage solves do not
// retry it.
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
