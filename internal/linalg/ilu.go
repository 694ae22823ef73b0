package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ILU0 is an incomplete LU factorization with zero fill-in: L and U share
// A's sparsity pattern exactly. Where the line factor solves the couplings
// of one direction exactly and drops the other's, ILU(0) keeps both
// directions approximately: the classic general-purpose preconditioner for
// advection-diffusion operators.
//
// The factor is stored in the order the triangular solves visit it, not in
// row order: val[:lptr[n]] holds L's strict lower rows (unit diagonal
// implied) in forward level-schedule order, the rest holds U's rows in
// backward level-schedule order, each row its diagonal followed by its
// strict upper entries; col runs parallel to val. Both sweeps therefore
// stream val and col front to back, and neighbouring rows — independent
// within a level — overlap their multiply-subtract and divide chains
// instead of each waiting on the row before it. Within a row the entries
// keep ascending column order, so every row's arithmetic is the row-major
// solve's.
//
// On a stencil the rows of a level step by a constant and share their
// column offsets, so most of each sweep is runs (rowRun) that read val as a
// stream and no col entry or row index. Where the step plus a row's
// second-to-last offset is its last offset — on the 5-point grid the
// forward sweep's west neighbour is the next row's south, the backward
// sweep's north the next row's east — that neighbour is loaded once and
// carried to the next row. Runs form only where the carry holds; the other
// positions take the indexed row loop.
type ILU0 struct {
	n   int
	val []float64
	col []int32 // column of val[k]; a U row's leading (diagonal) entry names the row

	// Forward position p solves row fwdRows[p] from val[lptr[p]:lptr[p+1]];
	// backward position p solves row col[uptr[p]] from val[uptr[p]:uptr[p+1]].
	fwdRows    []int32
	lptr, uptr []int32

	fwdPos, bwdPos []int32 // schedule positions of each row, for Refactor and factorize
	colPos         []int32 // scratch scatter index, kept to make Refactor allocation-free

	// The carrying runs of each sweep in schedule positions, found once per
	// pattern in NewILU0 (Refactor keeps them: values move, the pattern
	// does not).
	fwdRuns, bwdRuns []rowRun
}

// NewILU0 computes the ILU(0) factorization of a square CSR matrix. It
// fails if a zero or non-finite pivot appears (the factorization exists for
// M-matrices and diagonally dominant operators; arbitrary matrices may
// break down); the factor object then comes back with the error, its values
// unusable until a Refactor succeeds. A structural failure returns no object.
func NewILU0(a *CSR, ops *Ops) (*ILU0, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: ILU0 needs a square matrix")
	}
	if len(a.val) > math.MaxInt32 {
		return nil, errors.New("linalg: ILU0 matrix too large for 32-bit factor indices")
	}
	f := &ILU0{n: a.Rows}
	diag, bwdRows, err := f.buildLevels(a)
	if err != nil {
		return nil, err
	}
	f.pack(a, diag, bwdRows)
	f.sweepRuns(bwdRows)
	f.colPos = make([]int32, f.n)
	for i := range f.colPos {
		f.colPos[i] = -1
	}
	return f, f.Refactor(a, ops)
}

// buildLevels computes the forward and backward dependency level sets of
// a's pattern and, on the way, the index of each row's diagonal entry
// (column indices are sorted by the builder). Row i's forward level is
// 1 + max level over its strict-lower neighbours (0 when it has none); the
// backward levels are the mirror over the strict upper pattern. Rows are
// bucketed per level in ascending row order — the order within a level is
// irrelevant for the solve values, the rows being independent, but a fixed
// order keeps the schedule deterministic.
func (f *ILU0) buildLevels(a *CSR) (diag []int, bwdRows []int32, err error) {
	n := f.n
	diag = make([]int, n)
	lev := make([]int32, n)
	maxL := int32(0)
	for i := 0; i < n; i++ {
		l := int32(0)
		k, end := a.rowPtr[i], a.rowPtr[i+1]
		for ; k < end && a.colIdx[k] < i; k++ {
			if d := lev[a.colIdx[k]] + 1; d > l {
				l = d
			}
		}
		if k == end || a.colIdx[k] != i {
			return nil, nil, fmt.Errorf("linalg: ILU0 row %d has no diagonal entry", i)
		}
		diag[i] = k
		lev[i] = l
		if l > maxL {
			maxL = l
		}
	}
	f.fwdRows = bucketByLevel(lev, int(maxL)+1)
	// Backward levels: fill lev in decreasing row order so every strict-
	// upper neighbour is already leveled when row i reads it.
	maxL = 0
	for i := n - 1; i >= 0; i-- {
		l := int32(0)
		for _, c := range a.colIdx[diag[i]+1 : a.rowPtr[i+1]] {
			if d := lev[c] + 1; d > l {
				l = d
			}
		}
		lev[i] = l
		if l > maxL {
			maxL = l
		}
	}
	return diag, bucketByLevel(lev, int(maxL)+1), nil
}

// bucketByLevel orders row indices by their level with a stable counting
// pass: level by level, each level's rows ascending.
func bucketByLevel(lev []int32, nlev int) []int32 {
	ptr := make([]int, nlev+1)
	for _, l := range lev {
		ptr[l+1]++
	}
	for l := 1; l <= nlev; l++ {
		ptr[l] += ptr[l-1]
	}
	rows := make([]int32, len(lev))
	next := ptr[:nlev]
	for i, l := range lev {
		rows[next[l]] = int32(i)
		next[l]++
	}
	return rows
}

// pack lays the pattern of a out in schedule order: it fills col, the row
// pointers and the row-to-position maps, and sizes val. Every array is
// allocated once at its exact size.
func (f *ILU0) pack(a *CSR, diag []int, bwdRows []int32) {
	n, nnz := f.n, len(a.val)
	f.val = make([]float64, nnz)
	f.col = make([]int32, nnz)
	f.lptr = make([]int32, n+1)
	f.uptr = make([]int32, n+1)
	f.fwdPos = make([]int32, n)
	f.bwdPos = make([]int32, n)
	k := int32(0)
	for p, i := range f.fwdRows {
		f.fwdPos[i] = int32(p)
		f.lptr[p] = k
		k += int32(diag[i] - a.rowPtr[i])
	}
	f.lptr[n] = k
	for p, i := range bwdRows {
		f.bwdPos[i] = int32(p)
		f.uptr[p] = k
		k += int32(a.rowPtr[i+1] - diag[i])
	}
	f.uptr[n] = k
	// Fill in row order, as Refactor does the values: the reads stream
	// through a and the writes advance one cursor per level.
	col, acol := f.col, a.colIdx[:nnz]
	for i, d := range diag {
		kl, ku := f.lptr[f.fwdPos[i]], f.uptr[f.bwdPos[i]]
		for k := a.rowPtr[i]; k < d; k++ {
			col[kl] = int32(acol[k])
			kl++
		}
		for k := d; k < a.rowPtr[i+1]; k++ { // sorted columns put the diagonal first
			col[ku] = int32(acol[k])
			ku++
		}
	}
}

// sweepRuns finds the runs of both sweeps on the packed pattern: forward
// positions of two L entries, backward positions of a diagonal and two
// upper entries, the last entry one step beyond the one before it.
func (f *ILU0) sweepRuns(bwdRows []int32) {
	carries := func(w int) func(run rowRun) bool {
		return func(run rowRun) bool { return run.w == w && run.step+run.off[w-2] == run.off[w-1] }
	}
	f.fwdRuns = seqRuns(f.fwdRows, f.lptr, f.col, carries(2))
	f.bwdRuns = seqRuns(bwdRows, f.uptr, f.col, carries(3))
}

// Refactor recomputes the factorization in place for a matrix with the
// same sparsity pattern as the one the factorization was built from (the
// Rosenbrock stage matrix (1/(gamma*tau))*I - J: its pattern is fixed, only
// the diagonal moves when tau changes). It allocates nothing. On a zero
// or non-finite pivot the factor values are left invalid and must not be
// used for Solve.
//
//vetsparse:allocfree
func (f *ILU0) Refactor(a *CSR, ops *Ops) error {
	if a.Rows != f.n || a.Cols != f.n || len(a.val) != len(f.val) {
		return errors.New("linalg: ILU0 refactor pattern mismatch")
	}
	// Scatter a's values into schedule order: a row's lower entries lead
	// its CSR row, its diagonal and upper entries end it.
	val, aval := f.val, a.val
	k := 0
	for i, fp := range f.fwdPos {
		for kl, end := f.lptr[fp], f.lptr[fp+1]; kl < end; kl++ {
			val[kl] = aval[k]
			k++
		}
		bp := f.bwdPos[i]
		for ku, end := f.uptr[bp], f.uptr[bp+1]; ku < end; ku++ {
			val[ku] = aval[k]
			k++
		}
	}
	return f.factorize(ops)
}

// factorize runs the IKJ elimination restricted to the existing pattern,
// overwriting f.val (which must hold the matrix values on entry). Rows are
// eliminated in forward schedule order: a row's pivot rows are exactly its
// strict-lower neighbours, all in earlier levels, so each row sees the same
// finished pivot rows — and runs the same operations — as in natural
// order, while L streams front to back and the rows of a level overlap
// their divisions. Every pivot row has passed its check by the time
// another row divides by it; a breakdown reports the first zero or
// non-finite pivot in schedule order.
//
//vetsparse:allocfree
func (f *ILU0) factorize(ops *Ops) error {
	val, col := f.val, f.col
	colPos := f.colPos // scatter index of row i's entries; -1 outside row i
	var flops int64
	for fp, i := range f.fwdRows {
		bp := f.bwdPos[i]
		l0, l1 := f.lptr[fp], f.lptr[fp+1]
		u0, u1 := f.uptr[bp], f.uptr[bp+1]
		for k := l0; k < l1; k++ {
			colPos[col[k]] = k
		}
		for k := u0; k < u1; k++ {
			colPos[col[k]] = k
		}
		for k := l0; k < l1; k++ { // only the strict lower part eliminates
			jp := f.bwdPos[col[k]]
			j0, j1 := f.uptr[jp], f.uptr[jp+1]
			lij := val[k] / val[j0]
			val[k] = lij
			flops++
			for kk := j0 + 1; kk < j1; kk++ {
				if p := colPos[col[kk]]; p >= 0 {
					val[p] -= lij * val[kk]
					flops += 2
				}
			}
		}
		for k := l0; k < l1; k++ {
			colPos[col[k]] = -1
		}
		for k := u0; k < u1; k++ {
			colPos[col[k]] = -1
		}
		if d := val[u0]; d == 0 || !finite(d) {
			ops.Add(flops)
			return fmt.Errorf("linalg: ILU0 pivot %g at row %d", d, i)
		}
	}
	ops.Add(flops)
	return nil
}

// Solve applies the preconditioner: x = U^-1 L^-1 b. x and b may alias.
// Runs take the carrying kernels, the positions between them the row
// loops; every row computes the row-major expression over the same operands.
//
//vetsparse:allocfree
func (f *ILU0) Solve(x, b Vector, ops *Ops) {
	if len(x) != f.n || len(b) != f.n {
		panic("linalg: ILU0 solve dimension mismatch")
	}
	p := 0
	for i := range f.fwdRuns {
		run := &f.fwdRuns[i]
		f.forwardRows(x, b, p, run.r0)
		fwdRun(x, b, f.val[f.lptr[run.r0]:f.lptr[run.r1]], int(f.fwdRows[run.r0]), run.step, run.off[0], run.off[1])
		p = run.r1
	}
	f.forwardRows(x, b, p, f.n)
	p = 0
	for i := range f.bwdRuns {
		run := &f.bwdRuns[i]
		f.backwardRows(x, p, run.r0)
		u := f.uptr[run.r0]
		bwdRun(x, f.val[u:f.uptr[run.r1]], int(f.col[u]), run.step, run.off[1], run.off[2])
		p = run.r1
	}
	f.backwardRows(x, p, f.n)
	ops.Add(2 * int64(len(f.val)))
}

// fwdRun is forwardRows over a run whose rows start at r and step by step,
// v its L values, two a row at offsets o0 and o1 = step+o0: the o1
// neighbour a row loads is the next row's o0 neighbour, carried in xc.
//
//vetsparse:allocfree
func fwdRun(x, b Vector, v []float64, r, step, o0, o1 int) {
	b = b[:len(x)]
	xc := x[r+o0]
	for ; len(v) >= 2; v = v[2:] {
		x1 := x[r+o1]
		s := b[r]
		s -= v[0] * xc
		s -= v[1] * x1
		x[r] = s
		xc = x1
		r += step
	}
}

// bwdRun is backwardRows over a run whose rows start at r and step by
// step, v its U values, a row its diagonal and upper entries at offsets
// o1 and o2 = step+o1: the o2 neighbour a row loads is the next row's o1
// neighbour, carried in xc.
//
//vetsparse:allocfree
func bwdRun(x Vector, v []float64, r, step, o1, o2 int) {
	xc := x[r+o1]
	for ; len(v) >= 3; v = v[3:] {
		x2 := x[r+o2]
		s := x[r]
		s -= v[1] * xc
		s -= v[2] * x2
		x[r] = s / v[0]
		xc = x2
		r += step
	}
}

// forwardRows runs the unit-lower forward substitution for the schedule
// positions [p0, p1): x[i] = b[i] - L[i,:]*x. The positions must respect
// the level order: every row an entry reads is already solved.
//
//vetsparse:allocfree
func (f *ILU0) forwardRows(x, b Vector, p0, p1 int) {
	rows := f.fwdRows[p0:p1]
	ptr := f.lptr[p0 : p1+1]
	val := f.val
	col := f.col[:len(val)]
	k := int(ptr[0])
	for q, i := range rows {
		end := int(ptr[q+1])
		s := b[i]
		for ; k < end; k++ {
			s -= val[k] * x[col[k]]
		}
		x[i] = s
	}
}

// backwardRows runs the upper backward substitution for the schedule
// positions [p0, p1): x[i] = (x[i] - U[i,i+1:]*x) / U[i,i].
//
//vetsparse:allocfree
func (f *ILU0) backwardRows(x Vector, p0, p1 int) {
	ptr := f.uptr[p0 : p1+1]
	val := f.val
	col := f.col[:len(val)]
	k := int(ptr[0])
	for q := range ptr[:len(ptr)-1] {
		end := int(ptr[q+1])
		i, d := col[k], val[k]
		s := x[i]
		for k++; k < end; k++ {
			s -= val[k] * x[col[k]]
		}
		x[i] = s / d
	}
}

// BiCGStabILU solves A x = b with BiCGStab preconditioned by an ILU(0)
// factorization of A (computed internally). On operators where ILU(0)
// breaks down it falls back to the line-preconditioned BiCGStab. It
// allocates fresh factors and workspace; hot loops should hold a Workspace
// and call its BiCGStabILU method, which caches the factorization.
func BiCGStabILU(a *CSR, x, b Vector, tol float64, maxIter int, ops *Ops) (SolveStats, error) {
	return NewWorkspace().BiCGStabILU(a, x, b, tol, maxIter, math.NaN(), ops)
}

// BiCGStabILU is the workspace-pooled variant of the package-level
// BiCGStabILU. The ILU(0) factorization is cached in ws keyed on (a, key)
// (see ILUFor): a repeated key reuses the factors even after a's values
// moved — the Rosenbrock integrator passes one key per refactorization, so
// a nearby shift's factors precondition its exact stage matrix — and a new
// key refactorizes in place with no allocation. A NaN key never matches,
// forcing a refactorization. On factorization breakdown it falls back to
// the line-preconditioned BiCGStab, its line factor cached under the same
// key (BiCGStabLines).
//
//vetsparse:allocfree
func (ws *Workspace) BiCGStabILU(a *CSR, x, b Vector, tol float64, maxIter int, key float64, ops *Ops) (SolveStats, error) {
	f, err := ws.ILUFor(a, key, ops)
	if err != nil {
		f = nil
	}
	return ws.bicgstab(a, f, x, b, tol, maxIter, key, ops)
}
