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
}

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
