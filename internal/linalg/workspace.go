package linalg

// Workspace owns every buffer the iterative solver needs — the BiCGStab
// vectors and the cached line and ILU(0) factors — so a steady-state
// Rosenbrock stepping loop performs no allocations at all. A zero-value
// Workspace is ready to use; buffers grow on demand and are reused across
// solves (and across systems of different sizes: a buffer is re-sliced when
// large enough, reallocated otherwise).
//
// A Workspace is not safe for concurrent use; give each goroutine its own.
type Workspace struct {
	// Shared by both BiCGStab preconditioners; the line factor is cached
	// under the caller's key (BiCGStabLines).
	r, rTilde, p, v, s, t, pHat, sHat Vector
	lines                             lineFactor

	// Cached ILU(0) factorization, keyed on the matrix identity and a
	// caller-supplied key (ILUFor).
	ilu      *ILU0
	iluSrc   *CSR
	iluKey   float64
	iluValid bool
	iluErr   error

	// Phase plans of the solver prologue and iteration body. They are
	// built when their planKey changes; a solve that finds them current
	// only rebinds the steps naming the caller's x and b.
	phInit, phPu, phAv Phase // prologue, direction update, A*pHat with its dot
	phS, phAt, phX     Phase // s step, A*sHat with its dots, x/r step
	phTmp              Phase // the half-step tail, bound on the spot and run at once
	bicg               planKey
	sc                 [scCount]float64
}

// planKey is what the plans were built for: the matrix (by identity — a
// ShiftedOperator rewrites values in place) and the dimension. Every other
// bound vector changes only together with n.
type planKey struct {
	a  *CSR
	n  int
	xb [2]Vector // the caller's x and b the plans name now
}

// current reports whether the plans built under k serve (a, n); if so it
// points the steps of the given phases that name the previous solve's x and
// b at this one's. Otherwise it records the new key and the caller builds.
func (k *planKey) current(a *CSR, n int, x, b Vector, named ...*Phase) bool {
	hit := k.a == a && k.n == n
	if hit && n > 0 {
		for _, ph := range named {
			ph.rebind(k.xb, [2]Vector{x, b})
		}
	}
	*k = planKey{a: a, n: n, xb: [2]Vector{x, b}}
	return hit
}

// Scalar slots the fused plans read through pointers; the solver loops
// store into them right before each run.
const (
	scBeta = iota
	scOmegaPrev
	scNegAlpha
	scAlpha
	scOmega
	scCount
)

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

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

// buildBiCGStabPhases binds the BiCGStab phases to the workspace vectors and
// the caller's x and b: the direction step, two products that reduce their
// dots as they write, the s step and the x/r step, one run each. The
// preconditioner runs between them, so neither product reads a vector its
// own phase wrote (the rule mulVecDot checks).
func (ws *Workspace) buildBiCGStabPhases(a *CSR, x, b Vector) {
	n := len(ws.r)
	if ws.bicg.current(a, n, x, b, &ws.phInit, &ws.phX) {
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
	xp := &ws.phX // <rTilde, r> is the next iteration's rho, one run early
	xp.Reset(n)
	xp.xrStep(x, &sc[scAlpha], ws.pHat, &sc[scOmega], ws.sHat, ws.r, ws.s, ws.t, ws.rTilde)
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
