package linalg

// A rowRun is a maximal block of consecutive rows [r0, r1) that all store w
// entries at the same column offsets off[:w] from the row index — the
// diagonals of a stencil operator. Inside a run the CSR arrays carry no
// information beyond the values: row r's entries sit at
// Val[RowPtr[r0]+(r-r0)*w:][:w] and multiply x[r+off[0]], x[r+off[1]], …,
// so SpMV streams Val against w shifted views of x without loading a
// column index.
type rowRun struct {
	r0, r1 int
	w      int
	off    [maxRunWidth]int
}

const (
	// minRunWidth..maxRunWidth are the row widths with an unrolled run
	// kernel: the 5-point stencil's interior rows (5), its edge rows (4)
	// and a tridiagonal operator (3). Other rows keep the indexed loop.
	minRunWidth = 3
	maxRunWidth = 5
	// minRunRows is the shortest block worth a run entry: below it the
	// per-run slicing costs more than the column loads it saves.
	minRunRows = 4
)

// runEnd returns the end of the maximal block of rows starting at r that
// share row r's width and column offsets.
func (m *CSR) runEnd(r int) int {
	w := m.RowPtr[r+1] - m.RowPtr[r]
	e := r + 1
	for ; e < m.Rows && m.RowPtr[e+1]-m.RowPtr[e] == w; e++ {
		prev, cur := m.ColIdx[m.RowPtr[e-1]:m.RowPtr[e]], m.ColIdx[m.RowPtr[e]:m.RowPtr[e+1]]
		for j, c := range cur {
			if c != prev[j]+1 {
				return e
			}
		}
	}
	return e
}

// findRuns analyses m's pattern once, in O(nnz): it returns the blocks of
// at least minRunRows rows whose width has an unrolled kernel, in row
// order. The table is counted first and allocated at its exact size.
func findRuns(m *CSR) []rowRun {
	keep := func(r, e int) bool {
		w := m.RowPtr[r+1] - m.RowPtr[r]
		return e-r >= minRunRows && w >= minRunWidth && w <= maxRunWidth
	}
	count := 0
	for r := 0; r < m.Rows; {
		e := m.runEnd(r)
		if keep(r, e) {
			count++
		}
		r = e
	}
	if count == 0 {
		return nil
	}
	runs := make([]rowRun, 0, count)
	for r := 0; r < m.Rows; {
		e := m.runEnd(r)
		if keep(r, e) {
			run := rowRun{r0: r, r1: e, w: m.RowPtr[r+1] - m.RowPtr[r]}
			for j, c := range m.ColIdx[m.RowPtr[r]:m.RowPtr[r+1]] {
				run.off[j] = c - r
			}
			runs = append(runs, run)
		}
		r = e
	}
	return runs
}

// mulVecRun computes y[r] = (A*x)[r] for rows [r0, r1) inside run.
//
//vetsparse:allocfree
func (m *CSR) mulVecRun(y, x Vector, run *rowRun, r0, r1 int) {
	n := r1 - r0
	k := m.RowPtr[r0]
	v := m.Val[k : k+n*run.w]
	yy := y[r0:r1]
	o := &run.off
	switch run.w {
	case 3:
		mulRun3(yy, v, x[r0+o[0]:], x[r0+o[1]:], x[r0+o[2]:])
	case 4:
		mulRun4(yy, v, x[r0+o[0]:], x[r0+o[1]:], x[r0+o[2]:], x[r0+o[3]:])
	case 5:
		mulRun5(yy, v, x[r0+o[0]:], x[r0+o[1]:], x[r0+o[2]:], x[r0+o[3]:], x[r0+o[4]:])
	}
}

// The mulRun kernels compute y[i] = sum_j v[i*w+j]*xj[i] with the row
// loop's arithmetic: a fresh accumulator per row, started at +0 and added
// to left to right.

//vetsparse:allocfree
func mulRun3(y, v, x0, x1, x2 []float64) {
	x0, x1, x2 = x0[:len(y)], x1[:len(y)], x2[:len(y)]
	for i := range y {
		_ = v[2]
		s := 0.0 + v[0]*x0[i]
		s += v[1] * x1[i]
		s += v[2] * x2[i]
		y[i] = s
		v = v[3:]
	}
}

//vetsparse:allocfree
func mulRun4(y, v, x0, x1, x2, x3 []float64) {
	x0, x1, x2, x3 = x0[:len(y)], x1[:len(y)], x2[:len(y)], x3[:len(y)]
	for i := range y {
		_ = v[3]
		s := 0.0 + v[0]*x0[i]
		s += v[1] * x1[i]
		s += v[2] * x2[i]
		s += v[3] * x3[i]
		y[i] = s
		v = v[4:]
	}
}

//vetsparse:allocfree
func mulRun5(y, v, x0, x1, x2, x3, x4 []float64) {
	x0, x1, x2, x3, x4 = x0[:len(y)], x1[:len(y)], x2[:len(y)], x3[:len(y)], x4[:len(y)]
	for i := range y {
		_ = v[4]
		s := 0.0 + v[0]*x0[i]
		s += v[1] * x1[i]
		s += v[2] * x2[i]
		s += v[3] * x3[i]
		s += v[4] * x4[i]
		y[i] = s
		v = v[5:]
	}
}
