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
// The pattern is analysed once per matrix identity, like the run table.
// The direction and the factors are computed from the values and cached
// under the caller's key, the way ILUFor caches ILU(0) (factorFor).
type lineFactor struct {
	src    *CSR
	key    float64  // the key the factors were computed under; NaN: none
	stride int      // largest column offset above the diagonal; 1: the two offsets coincide
	lines  int      // interleave step of the offset-1 sweeps: the stride on a rectangle of decoupled lines, else 1
	dg     []int    // index in src.val of row r's diagonal, -1 if not stored
	lo, up [2][]int // per offset (1, stride): index of row r's entry in column r-d / r+d, -1 if not stored

	d, step   int    // this solve's offset and interleave step
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
	lf.src, lf.stride, lf.lines = a, 1, 1
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
// diagonal: 1/d, or 1 where d = 0. The factors are under no key.
//
//vetsparse:allocfree
func (lf *lineFactor) factor(a *CSR, ops *Ops) {
	if lf.src != a {
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
	lf.d, lf.step, lf.diag, lf.key = 1, lf.lines, false, math.NaN()
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
	x, inv := x[:n], lf.inv[:n]
	if lf.diag {
		for r := range x {
			x[r] = inv[r] * b[r]
		}
		ops.Add(int64(n))
		return
	}
	ops.Add(5 * int64(n))
	w, u, d, s := lf.w[:n], lf.u[:n], lf.d, lf.step
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
