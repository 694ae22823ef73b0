package linalg

import "math"

// lineFactor is BiCGStab's preconditioner: the exact LU factorization of
// A's tridiagonal part along one of its two line offsets, 1 or the
// pattern's stride. On a grid operator that is block Jacobi with one block
// per grid line (Saad, Iterative Methods for Sparse Linear Systems, §10.5),
// each block solved directly. The thin grids of a sparse-grid family couple
// one direction far more strongly than the other; a line solve takes that
// coupling exactly where a diagonal sees none of it.
//
// The pattern is analysed once per matrix identity, like ILU(0)'s level
// schedule. The direction and the factors are computed from the values and
// cached under the caller's key, the way ILUFor caches ILU(0) (factorFor).
// A stencil operator analyses nothing: every line holds the same matrix,
// and the factors are one line's (factorStencil).
type lineFactor struct {
	src *CSR
	key float64 // the key the factors were computed under; NaN: none

	// The general path's pattern, analysed once per matrix identity.
	pat    *CSR
	stride int      // largest column offset above the diagonal; 1: the two offsets coincide
	lines  int      // interleave step of the offset-1 sweeps: the stride on a rectangle of decoupled lines, else 1
	dg     []int    // index in pat.val of row r's diagonal, -1 if not stored
	lo, up [2][]int // per offset (1, stride): index of row r's entry in column r-d / r+d, -1 if not stored

	// A stencil's direction, chosen once per matrix identity and
	// off-diagonal coefficients.
	dirSrc *CSR
	dirOff stencil // the stencil it was chosen for, centre zeroed
	alongY bool

	d, step   int    // this solve's offset and interleave step
	m         int    // a stencil's line length: the factors are one line's, every line alike; 0: one entry a row
	diag      bool   // a pivot failed: the factor is the diagonal alone
	w, inv, u Vector // L's multipliers, U's inverted pivots, U's upper entries
}

// valAt returns val[p], or 0 for an entry that is not stored (p < 0).
func valAt(val []float64, p int) float64 {
	if p < 0 {
		return 0
	}
	return val[p]
}

// analyse reads a's pattern: the stride, where each row's diagonal and
// line neighbours sit, and whether the offset-1 lines tile a rectangle (n a
// multiple of the stride, no entry from one line into the next), whose
// sweeps then visit one position of every line at a time.
func (lf *lineFactor) analyse(a *CSR) {
	n := a.Rows
	lf.pat, lf.stride, lf.lines = a, 1, 1
	for r := 0; r < n; r++ {
		if k := a.rowPtr[r+1] - 1; k >= a.rowPtr[r] {
			lf.stride = max(lf.stride, a.colIdx[k]-r)
		}
	}
	lf.dg = grow(lf.dg, n)
	for k := range lf.lo {
		lf.lo[k], lf.up[k] = grow(lf.lo[k], n), grow(lf.up[k], n)
	}
	for r := 0; r < n; r++ {
		lf.dg[r], lf.lo[0][r], lf.up[0][r], lf.lo[1][r], lf.up[1][r] = -1, -1, -1, -1, -1
		for k := a.rowPtr[r]; k < a.rowPtr[r+1]; k++ {
			switch a.colIdx[k] - r { // with stride 1, offset 1 takes the entries
			case 0:
				lf.dg[r] = k
			case -1:
				lf.lo[0][r] = k
			case 1:
				lf.up[0][r] = k
			case -lf.stride:
				lf.lo[1][r] = k
			case lf.stride:
				lf.up[1][r] = k
			}
		}
	}
	if s := lf.stride; s > 1 && n%s == 0 {
		lf.lines = s
		for r := 0; r < n && lf.lines > 1; r += s {
			if lf.lo[0][r] >= 0 || lf.up[0][r+s-1] >= 0 {
				lf.lines = 1
			}
		}
	}
}

// factorFor keeps the factors while the matrix identity and the caller's key
// both match the previous call, even after a's values moved, and factors
// afresh otherwise. A pivot failure is kept under its key like factors are;
// a NaN key never matches.
//
//vetsparse:allocfree
func (lf *lineFactor) factorFor(a *CSR, key float64, ops *Ops) {
	if lf.src != a || lf.key != key {
		lf.factor(a, ops)
		lf.key = key
	}
}

// factor picks the direction, the offset whose couplings sum to the larger
// Σ|a_ij| (no shift moves that choice: the stage matrix (1/s)*I - J holds
// the same off-diagonals at every s), and runs the Thomas recurrence along
// it in the sweeps' order: w_r = lo_r*inv_{r-d}, inv_r = 1/(dg_r - w_r*up_{r-d}).
// A zero or non-finite pivot drops the couplings, and the factor is the
// diagonal: 1/d, or 1 where d = 0. The factors are under no key. A stencil
// takes factorStencil.
//
//vetsparse:allocfree
func (lf *lineFactor) factor(a *CSR, ops *Ops) {
	lf.src, lf.diag, lf.key = a, false, math.NaN()
	if a.st.mx > 0 {
		lf.factorStencil(a, ops)
		return
	}
	if lf.pat != a {
		lf.analyse(a)
	}
	n, val, k := a.Rows, a.val, 0
	if lf.stride > 1 {
		s0, s1 := 0.0, 0.0
		for r := 0; r < n; r++ {
			s0 += math.Abs(valAt(val, lf.lo[0][r])) + math.Abs(valAt(val, lf.up[0][r]))
			s1 += math.Abs(valAt(val, lf.lo[1][r])) + math.Abs(valAt(val, lf.up[1][r]))
		}
		if s1 > s0 {
			k = 1
		}
	}
	lf.d, lf.step, lf.m = 1, lf.lines, 0
	if k == 1 {
		lf.d, lf.step = lf.stride, 1
	}
	lf.w, lf.inv, lf.u = grow(lf.w, n), grow(lf.inv, n), grow(lf.u, n)
	d, w, inv, u, lo, up := lf.d, lf.w, lf.inv, lf.u, lf.lo[k], lf.up[k]
	for i := 0; i < lf.step; i++ {
		for r := i; r < n; r += lf.step {
			piv, wr := valAt(val, lf.dg[r]), 0.0
			if p := lo[r]; p >= 0 {
				wr = val[p] * inv[r-d]
				piv -= wr * u[r-d]
			}
			w[r], u[r], inv[r] = wr, valAt(val, up[r]), 1/piv
			if m := math.Abs(inv[r]); !(m > 0 && m <= math.MaxFloat64) {
				lf.diag = true
			}
		}
	}
	ops.Add(4 * int64(n))
	if lf.diag {
		for r := range inv {
			inv[r] = 1
			if dr := valAt(val, lf.dg[r]); dr != 0 {
				inv[r] = 1 / dr
			}
		}
	}
}

// factorStencil is factor on a stencil operator, whose every line along
// either offset holds the same tridiagonal matrix, so the recurrence gives
// every line the same factors: it computes one line's, m long, from the
// five coefficients, by the expressions factor computes each row's with,
// and charges factor's 4n flops. The direction is stencilAlongY's, kept
// while the matrix identity and its off-diagonals are.
//
//vetsparse:allocfree
func (lf *lineFactor) factorStencil(a *CSR, ops *Ops) {
	st := a.st
	off := st
	off.c[stC] = 0
	if lf.dirSrc != a || lf.dirOff != off {
		lf.dirSrc, lf.dirOff, lf.alongY = a, off, stencilAlongY(&st)
	}
	lo, up, m := st.c[stW], st.c[stE], st.mx
	lf.d, lf.step = 1, st.mx
	if lf.alongY {
		lo, up, m = st.c[stS], st.c[stN], st.my
		lf.d, lf.step = st.mx, 1
	}
	lf.m = m
	lf.w, lf.inv, lf.u = grow(lf.w, m), grow(lf.inv, m), grow(lf.u, m)
	w, inv, u, cc := lf.w, lf.inv, lf.u, st.c[stC]
	for p := range w {
		piv, wp, upp := cc, 0.0, 0.0
		if p > 0 {
			wp = lo * inv[p-1]
			piv -= wp * u[p-1]
		}
		if p < m-1 {
			upp = up
		}
		w[p], u[p], inv[p] = wp, upp, 1/piv
		if mag := math.Abs(inv[p]); !(mag > 0 && mag <= math.MaxFloat64) {
			lf.diag = true
		}
	}
	ops.Add(4 * int64(a.Rows))
	if lf.diag {
		d := 1.0
		if cc != 0 {
			d = 1 / cc
		}
		for p := range inv {
			inv[p] = d
		}
	}
}

// stencilAlongY reports whether factor takes a stencil's y-lines: its sums
// of |a_ij| over the two offsets, taken row by row in row order with a
// missing neighbour's term 0, as factor takes them from the stored values.
func stencilAlongY(st *stencil) bool {
	aw, ae, as, an := math.Abs(st.c[stW]), math.Abs(st.c[stE]), math.Abs(st.c[stS]), math.Abs(st.c[stN])
	x := [3]float64{0 + ae, aw + ae, aw + 0} // the first column's, an inner one's, the last one's
	y := [3]float64{0 + an, as + an, as + 0}
	s0, s1 := 0.0, 0.0
	for j := 0; j < st.my; j++ {
		ty := y[min(j, 1)]
		if j == st.my-1 {
			ty = y[2]
		}
		s0 += x[0]
		s1 += ty
		for i := 1; i < st.mx-1; i++ {
			s0 += x[1]
			s1 += ty
		}
		s0 += x[2]
		s1 += ty
	}
	return s1 > s0
}

// solve applies the factor, x = T^-1 b (x and b distinct): the forward
// sweep y_r = b_r - w_r*y_{r-d}, then the backward sweep
// x_r = (y_r - u_r*x_{r+d})*inv_r. Lines at offset stride interleave in row
// order by themselves, and so does a pattern that is no rectangle; the
// offset-1 lines of a rectangle are swept one position of every line at a
// time, so that consecutive updates are independent rather than each
// waiting on the one before. Both orders compute every row by the same
// expression from the same operands.
//
//vetsparse:allocfree
func (lf *lineFactor) solve(x, b Vector, ops *Ops) {
	n := len(b)
	x = x[:n]
	if lf.diag {
		if lf.m > 0 { // a stencil: every row's pivot is the centre
			inv := lf.inv[0]
			for r := range x {
				x[r] = inv * b[r]
			}
		} else {
			inv := lf.inv[:n]
			for r := range x {
				x[r] = inv[r] * b[r]
			}
		}
		ops.Add(int64(n))
		return
	}
	ops.Add(5 * int64(n))
	if lf.m > 0 {
		lf.sweepLines(x, b)
		return
	}
	w, u, inv, d, s := lf.w[:n], lf.u[:n], lf.inv[:n], lf.d, lf.step
	if s == 1 {
		copy(x[:d], b[:d])
		for r := d; r < n; r++ {
			x[r] = b[r] - w[r]*x[r-d]
		}
		for r := n - 1; r >= n-d; r-- {
			x[r] *= inv[r]
		}
		for r := n - d - 1; r >= 0; r-- {
			x[r] = (x[r] - u[r]*x[r+d]) * inv[r]
		}
		return
	}
	for r := 0; r < n; r += s { // every line's first position, then the rest
		x[r] = b[r]
	}
	for i := 1; i < s; i++ {
		for r := i; r < n; r += s {
			x[r] = b[r] - w[r]*x[r-1]
		}
	}
	for r := s - 1; r < n; r += s { // every line's last position, then the rest
		x[r] *= inv[r]
	}
	for i := s - 2; i >= 0; i-- {
		for r := i; r < n; r += s {
			x[r] = (x[r] - u[r]*x[r+1]) * inv[r]
		}
	}
}

// sweepLines is solve's two sweeps on a stencil's one-line factor, each row
// by solve's expression with its line position's w, u and inv: the y-lines
// (d the grid width) a grid row at a time, the x-lines one position of
// every line at a time. Four lines or more take the lane kernels where the
// host has them (sweepLanes).
//
//vetsparse:allocfree
func (lf *lineFactor) sweepLines(x, b Vector) {
	n, m, d := len(b), lf.m, lf.d
	if useLanes && n/m >= 4 {
		lf.sweepLanes(x, b)
		return
	}
	w, u, inv := lf.w[:m], lf.u[:m], lf.inv[:m]
	if d > 1 {
		copy(x[:d], b[:d])
		for j := 1; j < m; j++ {
			wj, xj, xp, bj := w[j], x[j*d:][:d], x[(j-1)*d:][:d], b[j*d:][:d]
			for i := range xj {
				xj[i] = bj[i] - wj*xp[i]
			}
		}
		il, xl := inv[m-1], x[(m-1)*d:][:d]
		for i := range xl {
			xl[i] *= il
		}
		for j := m - 2; j >= 0; j-- {
			uj, ij, xj, xn := u[j], inv[j], x[j*d:][:d], x[(j+1)*d:][:d]
			for i := range xj {
				xj[i] = (xj[i] - uj*xn[i]) * ij
			}
		}
		return
	}
	for r := 0; r < n; r += m {
		x[r] = b[r]
	}
	for i := 1; i < m; i++ {
		wi := w[i]
		for r := i; r < n; r += m {
			x[r] = b[r] - wi*x[r-1]
		}
	}
	for r, il := m-1, inv[m-1]; r < n; r += m {
		x[r] *= il
	}
	for i := m - 2; i >= 0; i-- {
		ui, ii := u[i], inv[i]
		for r := i; r < n; r += m {
			x[r] = (x[r] - ui*x[r+1]) * ii
		}
	}
}
