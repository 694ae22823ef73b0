package linalg

import "fmt"

// CSR is a sparse matrix in compressed sparse row format. Its arrays are
// private: after construction a stored value changes only in
// ShiftedOperator.Update and in setVals, which keep st true.
type CSR struct {
	Rows, Cols int
	rowPtr     []int
	colIdx     []int
	val        []float64

	// st is set when the matrix is a uniform 5-point grid operator; its
	// SpMV then reads the five coefficients, not val (see stencil).
	st stencil
}

// NewCSR returns the rows x cols matrix whose arrays a caller has filled at
// their exact size, the form Build produces: rowPtr of length rows+1 rising
// from 0 to len(val), and colIdx as long as val with each row's columns
// strictly ascending inside [0, cols). It keeps the arrays, checks the
// pattern and finds its stencil, so an assembly that knows its pattern
// skips Builder's entry buffer. The matrix owns the arrays from then on:
// the caller must not write them.
func NewCSR(rows, cols int, rowPtr, colIdx []int, val []float64) (*CSR, error) {
	if rows < 0 || cols < 0 || len(rowPtr) != rows+1 || len(colIdx) != len(val) {
		return nil, fmt.Errorf("linalg: csr %dx%d with %d row pointers, %d columns, %d values", rows, cols, len(rowPtr), len(colIdx), len(val))
	}
	if rowPtr[0] != 0 || rowPtr[rows] != len(val) {
		return nil, fmt.Errorf("linalg: csr row pointers span [%d, %d), want [0, %d)", rowPtr[0], rowPtr[rows], len(val))
	}
	for r := 0; r < rows; r++ {
		if rowPtr[r+1] < rowPtr[r] {
			return nil, fmt.Errorf("linalg: csr row %d ends at %d before it starts at %d", r, rowPtr[r+1], rowPtr[r])
		}
	}
	sc := newStencilScan(rows, cols, rowPtr, colIdx)
	for r := 0; r < rows; r++ {
		prev := -1
		row := colIdx[rowPtr[r]:rowPtr[r+1]]
		for _, c := range row {
			if c <= prev || c >= cols {
				return nil, fmt.Errorf("linalg: csr row %d: column %d after %d, want ascending in [0, %d)", r, c, prev, cols)
			}
			prev = c
		}
		sc.row(row, val[rowPtr[r]:rowPtr[r+1]])
	}
	return &CSR{Rows: rows, Cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val, st: sc.st}, nil
}

// Builder assembles a sparse matrix by accumulating (row, col, value)
// entries; duplicate coordinates are summed. Finish with Build.
type Builder struct {
	rows, cols int
	entries    []entry
}

type entry struct {
	r, c int
	v    float64
}

// NewBuilder creates a builder for an rows x cols matrix.
func NewBuilder(rows, cols int) *Builder {
	return &Builder{rows: rows, cols: cols}
}

// Add accumulates v at (r, c).
func (b *Builder) Add(r, c int, v float64) {
	if r < 0 || r >= b.rows || c < 0 || c >= b.cols {
		panic(fmt.Sprintf("linalg: entry (%d,%d) outside %dx%d", r, c, b.rows, b.cols))
	}
	b.entries = append(b.entries, entry{r, c, v})
}

// Build sorts, merges and converts the accumulated entries to CSR. The
// sort is a two-pass LSD radix over (column, row) using counting buckets —
// O(nnz + rows + cols) instead of a comparison sort — and stable, so
// duplicate coordinates are summed in insertion order. Row-major input (a
// stencil emitting each row's columns ascending) is left as it is.
func (b *Builder) Build() *CSR {
	if !rowMajor(b.entries) {
		b.entries = countingSort(b.entries, b.rows, b.cols)
	}
	m := &CSR{Rows: b.rows, Cols: b.cols, rowPtr: make([]int, b.rows+1)}
	nnz := 0
	for i, e := range b.entries {
		if i == 0 || e.r != b.entries[i-1].r || e.c != b.entries[i-1].c {
			nnz++
		}
	}
	m.colIdx = make([]int, 0, nnz)
	m.val = make([]float64, 0, nnz)
	for i := 0; i < len(b.entries); {
		e := b.entries[i]
		v := e.v
		j := i + 1
		for j < len(b.entries) && b.entries[j].r == e.r && b.entries[j].c == e.c {
			v += b.entries[j].v
			j++
		}
		m.colIdx = append(m.colIdx, e.c)
		m.val = append(m.val, v)
		m.rowPtr[e.r+1] = len(m.val)
		i = j
	}
	sc := newStencilScan(b.rows, b.cols, m.rowPtr, m.colIdx) // row 0's pointers are final
	for r := 1; r <= b.rows; r++ {
		if m.rowPtr[r] == 0 {
			m.rowPtr[r] = m.rowPtr[r-1]
		}
		sc.row(m.colIdx[m.rowPtr[r-1]:m.rowPtr[r]], m.val[m.rowPtr[r-1]:m.rowPtr[r]])
	}
	m.st = sc.st
	return m
}

// rowMajor reports whether entries are already ordered by (row, column).
func rowMajor(es []entry) bool {
	for i := 1; i < len(es); i++ {
		if p, e := es[i-1], es[i]; e.r < p.r || e.r == p.r && e.c < p.c {
			return false
		}
	}
	return true
}

// countingSort orders entries by (row, column) with a stable two-pass
// least-significant-digit radix sort: first a counting pass over columns,
// then one over rows. Both passes are linear scatter-gathers.
func countingSort(entries []entry, rows, cols int) []entry {
	if len(entries) < 2 {
		return entries
	}
	tmp := make([]entry, len(entries))
	// Pass 1: stable counting sort by column into tmp.
	count := make([]int, maxInt(rows, cols)+1)
	for _, e := range entries {
		count[e.c+1]++
	}
	for c := 1; c < cols; c++ {
		count[c+1] += count[c]
	}
	for _, e := range entries {
		tmp[count[e.c]] = e
		count[e.c]++
	}
	// Pass 2: stable counting sort by row back into entries.
	for i := range count {
		count[i] = 0
	}
	for _, e := range tmp {
		count[e.r+1]++
	}
	for r := 1; r < rows; r++ {
		count[r+1] += count[r]
	}
	for _, e := range tmp {
		entries[count[e.r]] = e
		count[e.r]++
	}
	return entries
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.val) }

// MulVec computes y = A*x.
//
//vetsparse:allocfree
func (m *CSR) MulVec(y, x Vector, ops *Ops) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("linalg: mulvec dims %dx%d with x[%d], y[%d]", m.Rows, m.Cols, len(x), len(y)))
	}
	a := spmv{y: y, x: x}
	m.mulVecSpan(&a, 0, m.Rows)
	ops.Add(2 * int64(m.NNZ()))
}

// mulVecDot computes y = m*x for a square m and, in the sweep that writes
// y, returns <y, u0> and <y, u1> (u1 nil: d1 is 0 and not charged; either
// u may be y). Each output row is a serial dot product accumulated left to
// right over the row's stored entries, so y is MulVec's; the dots are
// dotChunks', one mulVecSpan per chunk, each chunk's accumulators restarted
// from +0 and fed the products in row order.
//
//vetsparse:allocfree
func (m *CSR) mulVecDot(y, x, u0, u1 Vector, ops *Ops) (d0, d1 float64) {
	a := spmv{y: y, x: x, u0: u0, u1: u1}
	if u1 == nil { // the kernels carry both accumulators or none; this one's is dropped
		a.u1 = y
	}
	for r0 := 0; r0 < m.Rows; r0 += redChunk {
		p0, p1 := m.mulVecSpan(&a, r0, min(r0+redChunk, m.Rows))
		d0 += p0
		if u1 != nil {
			d1 += p1
		}
	}
	flops := 2*int64(m.NNZ()) + 2*int64(m.Rows)
	if u1 != nil {
		flops += 2 * int64(m.Rows)
	}
	ops.Add(flops)
	return d0, d1
}

// spmv holds the operands of one product, handed down to the row kernels
// by reference: a thin grid makes a kernel call every few rows.
type spmv struct{ y, x, u0, u1 Vector }

// mulVecSpan computes y[r] = (A*x)[r] for rows r in [r0, r1) that share
// their reduction accumulators (one chunk, or with a nil u0 any range and
// none); it returns them. A stencil operator takes mulStencil, which reads
// no val; any other matrix takes the indexed row loop.
//
//vetsparse:allocfree
func (m *CSR) mulVecSpan(a *spmv, r0, r1 int) (p0, p1 float64) {
	if m.st.mx > 0 {
		return mulStencil(a, &m.st, p0, p1, r0, r1)
	}
	return m.mulVecRows(a, p0, p1, r0, r1)
}

// mulVecRows is the row loop of mulVecSpan: one indexed gather per stored
// entry. Rows 3, 4 or 5 wide — a non-uniform 5-point operator's, and all
// but the two ends of a one-line or one-column grid — are unrolled, so only
// other widths pay the inner loop's branch per entry. With reductions bound
// the dots <y, u0> and <y, u1> ride along in p0 and p1, one product a row
// in row order (a u that is y reads the row just stored).
//
//vetsparse:allocfree
func (m *CSR) mulVecRows(a *spmv, p0, p1 float64, r0, r1 int) (float64, float64) {
	ptr := m.rowPtr[r0 : r1+1]
	val := m.val
	col := m.colIdx[:len(val)]
	x, y := a.x, a.y[r0:r1]
	u0, u1 := a.u0, a.u1
	if u0 != nil {
		u0, u1 = u0[r0:r1][:len(y)], u1[r0:r1][:len(y)]
	}
	k := ptr[0]
	for i := range y {
		end := ptr[i+1]
		s := 0.0
		switch end - k {
		case 3: // the sums associate left to right, as the loop adds
			v, c := val[k:k+3:k+3], col[k:k+3:k+3]
			s = 0.0 + v[0]*x[c[0]] + v[1]*x[c[1]] + v[2]*x[c[2]]
		case 4:
			v, c := val[k:k+4:k+4], col[k:k+4:k+4]
			s = 0.0 + v[0]*x[c[0]] + v[1]*x[c[1]] + v[2]*x[c[2]] + v[3]*x[c[3]]
		case 5:
			v, c := val[k:k+5:k+5], col[k:k+5:k+5]
			s = 0.0 + v[0]*x[c[0]] + v[1]*x[c[1]] + v[2]*x[c[2]] + v[3]*x[c[3]] + v[4]*x[c[4]]
		default:
			for ; k < end; k++ {
				s += val[k] * x[col[k]]
			}
		}
		k = end
		y[i] = s
		if u0 != nil {
			p0 += s * u0[i]
			p1 += s * u1[i]
		}
	}
	return p0, p1
}

// AppendRow appends row r's column indices, ascending, and its values to
// cols and vals: copies, which leave the matrix as it is.
func (m *CSR) AppendRow(r int, cols []int, vals []float64) ([]int, []float64) {
	lo, hi := m.rowPtr[r], m.rowPtr[r+1]
	return append(cols, m.colIdx[lo:hi]...), append(vals, m.val[lo:hi]...)
}

// At returns the (r, c) entry (zero if not stored). Intended for tests;
// O(row nnz).
func (m *CSR) At(r, c int) float64 {
	for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
		if m.colIdx[k] == c {
			return m.val[k]
		}
	}
	return 0
}

// ShiftedScaled returns I - s*A for a square A: the Rosenbrock system
// matrix with s = gamma*tau. It assembles a fresh matrix on every call;
// hot loops that vary only s should hold a ShiftedOperator instead, whose
// Update keeps the same matrix scaled by 1/s in place and rewrites only its
// diagonal when s moves.
func (m *CSR) ShiftedScaled(s float64) *CSR {
	if m.Rows != m.Cols {
		panic("linalg: ShiftedScaled needs a square matrix")
	}
	b := NewBuilder(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		hasDiag := false
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			c := m.colIdx[k]
			v := -s * m.val[k]
			if c == r {
				v += 1
				hasDiag = true
			}
			b.Add(r, c, v)
		}
		if !hasDiag {
			b.Add(r, r, 1)
		}
	}
	return b.Build()
}
