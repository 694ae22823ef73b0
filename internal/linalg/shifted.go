package linalg

// ShiftedOperator maintains the Rosenbrock stage matrix of a fixed square A
// across many values of the shift s = gamma*tau, in the scaled form
// M/s = (1/s)*I - A (Hairer & Wanner, Solving ODEs II, §IV.7). M = I - s*A
// has A's sparsity pattern plus any structurally missing diagonal entries.
// When A stores every diagonal, M shares A's row pointers and column
// indices; otherwise the merged pattern is built once. With the shift
// factored out the off-diagonals -a_ij do not depend on s either, so they
// are written once and a step-size change rewrites only the n diagonal
// entries. The system M k = f is (M/s) k = f/s: the same solution, and for
// every iterate the same relative residual.
//
// The operator assumes A's values do not change between Update calls (the
// paper's problem is linear, so J is constant); call Invalidate after
// A's values are rewritten (setVals). A's pattern must not change at all.
// When A is a stencil operator (see stencil) so is the matrix, and Update
// writes its five coefficients with the expressions it writes its values
// with: -c for each off-diagonal, 1/s + (-c_C) for the diagonal.
type ShiftedOperator struct {
	a, m *CSR

	// apos[p] is the index into a.val feeding m.val[p], or -1 for a
	// diagonal entry that is structurally missing in A. It is nil when m
	// shares A's pattern, where m.val[p] is fed by a.val[p].
	apos []int
	// diag[r] is the index of row r's diagonal entry in m.val, and nd[r]
	// is -a_rr (0 where A stores none), copied with the off-diagonals.
	diag []int
	nd   []float64

	s     float64
	valid bool
}

// NewShiftedOperator binds the stage matrix to A: on A's own pattern when
// every row stores its diagonal, on the merged pattern of I and A, built
// once, otherwise. The returned operator's matrix holds no meaningful
// values until Update is called.
func NewShiftedOperator(a *CSR) *ShiftedOperator { return newShifted(a, true) }

// newShifted is NewShiftedOperator; share false builds the merged pattern
// even for an A that stores every diagonal.
func newShifted(a *CSR, share bool) *ShiftedOperator {
	if a.Rows != a.Cols {
		panic("linalg: ShiftedOperator needs a square matrix")
	}
	n := a.Rows
	o := &ShiftedOperator{a: a, diag: make([]int, n), nd: make([]float64, n)}
	// First pass: find each row's diagonal, and count entries per row (A's
	// row plus one for a missing diagonal) to size the merged arrays exactly.
	nnz, missing := 0, false
	for r := 0; r < n; r++ {
		rowN := a.rowPtr[r+1] - a.rowPtr[r]
		hasDiag := false
		for k := a.rowPtr[r]; k < a.rowPtr[r+1]; k++ {
			if a.colIdx[k] == r {
				o.diag[r] = k
				hasDiag = true
				break
			}
		}
		if !hasDiag {
			rowN++
			missing = true
		}
		nnz += rowN
	}
	if share && !missing {
		o.m = &CSR{Rows: n, Cols: n, rowPtr: a.rowPtr, colIdx: a.colIdx, val: make([]float64, len(a.val))}
		return o
	}
	m := &CSR{Rows: n, Cols: n, rowPtr: make([]int, n+1)}
	m.colIdx = make([]int, 0, nnz)
	m.val = make([]float64, nnz)
	o.apos = make([]int, 0, nnz)
	// Second pass: merge the (sorted) row of A with the diagonal.
	for r := 0; r < n; r++ {
		hasDiag := false
		for k := a.rowPtr[r]; k < a.rowPtr[r+1]; k++ {
			c := a.colIdx[k]
			if !hasDiag && c > r {
				// Insert the structurally missing diagonal before the
				// first super-diagonal entry.
				o.diag[r] = len(m.colIdx)
				m.colIdx = append(m.colIdx, r)
				o.apos = append(o.apos, -1)
				hasDiag = true
			}
			if c == r {
				o.diag[r] = len(m.colIdx)
				hasDiag = true
			}
			m.colIdx = append(m.colIdx, c)
			o.apos = append(o.apos, k)
		}
		if !hasDiag {
			o.diag[r] = len(m.colIdx)
			m.colIdx = append(m.colIdx, r)
			o.apos = append(o.apos, -1)
		}
		m.rowPtr[r+1] = len(m.colIdx)
	}
	o.m = m
	return o
}

// Matrix returns the operator's matrix (1/s)*I - A for the last Update shift
// s. The returned CSR is owned by the operator: its values are rewritten in
// place by the next Update.
func (o *ShiftedOperator) Matrix() *CSR { return o.m }

// A returns the source matrix the operator was built for.
func (o *ShiftedOperator) A() *CSR { return o.a }

// Invalidate forces the next Update to rewrite every value even at an
// unchanged shift (needed only if A's values were mutated).
func (o *ShiftedOperator) Invalidate() { o.valid = false }

// Update sets the matrix to (1/s)*I - A in place and returns it. The first
// call, and the first after Invalidate, copies the negated values of A,
// whose off-diagonals no shift changes; a call that changes s writes the
// diagonal 1/s - a_ii, or 1/s where A stores none, charged n flops (a
// negation is not one). A repeated s costs one compare; s = 0 panics.
//
//vetsparse:allocfree
func (o *ShiftedOperator) Update(s float64, ops *Ops) *CSR {
	if s == 0 {
		panic("linalg: ShiftedOperator.Update(0): (1/s)*I - A needs a nonzero shift")
	}
	if o.valid && s == o.s {
		return o.m
	}
	val, st := o.m.val, &o.m.st
	if !o.valid {
		if o.apos == nil {
			for p, v := range o.a.val[:len(val)] {
				val[p] = -v
			}
		}
		for p, k := range o.apos {
			val[p] = 0
			if k >= 0 {
				val[p] = -o.a.val[k]
			}
		}
		for r, p := range o.diag {
			o.nd[r] = val[p]
		}
		// A stencil A stores every diagonal, so m has its pattern (and
		// lane masks), and each of m's diagonals holds the negated one
		// of A's.
		*st, o.m.masks = o.a.st, o.a.masks
		for d, c := range st.c {
			st.c[d] = -c
		}
	}
	sigma := 1 / s
	for r, p := range o.diag {
		val[p] = sigma + o.nd[r]
	}
	if st.mx > 0 { // every nd[r] is -c_C: the diagonal's one value
		st.c[stC] = sigma + o.nd[0]
	}
	ops.Add(int64(len(o.diag)))
	o.s, o.valid = s, true
	return o.m
}
