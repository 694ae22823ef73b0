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

// The mulRun kernels compute y[r] = sum_j v[(r-r0)*w+j]*x[r+o[j]] for rows
// [r0, r1) with the row loop's arithmetic: a fresh accumulator per row,
// started at +0 and added to left to right. With reductions bound the dots
// <y, u0> and <y, u1> ride along in p0 and p1, one product a row in row
// order (a u that is y reads the row just stored); a nil u0 selects the loop
// without them.

//vetsparse:allocfree
func mulRun3(a *spmv, v []float64, o *[maxRunWidth]int, p0, p1 float64, r0, r1 int) (float64, float64) {
	y := a.y[r0:r1]
	x0, x1, x2 := a.x[r0+o[0]:][:len(y)], a.x[r0+o[1]:][:len(y)], a.x[r0+o[2]:][:len(y)]
	if a.u0 == nil {
		for i := range y {
			_ = v[2]
			s := 0.0 + v[0]*x0[i]
			s += v[1] * x1[i]
			s += v[2] * x2[i]
			y[i] = s
			v = v[3:]
		}
		return p0, p1
	}
	u0, u1 := a.u0[r0:r1][:len(y)], a.u1[r0:r1][:len(y)]
	for i := range y {
		_ = v[2]
		s := 0.0 + v[0]*x0[i]
		s += v[1] * x1[i]
		s += v[2] * x2[i]
		y[i] = s
		p0 += s * u0[i]
		p1 += s * u1[i]
		v = v[3:]
	}
	return p0, p1
}

//vetsparse:allocfree
func mulRun4(a *spmv, v []float64, o *[maxRunWidth]int, p0, p1 float64, r0, r1 int) (float64, float64) {
	y := a.y[r0:r1]
	x0, x1, x2, x3 := a.x[r0+o[0]:][:len(y)], a.x[r0+o[1]:][:len(y)], a.x[r0+o[2]:][:len(y)], a.x[r0+o[3]:][:len(y)]
	if a.u0 == nil {
		for i := range y {
			_ = v[3]
			s := 0.0 + v[0]*x0[i]
			s += v[1] * x1[i]
			s += v[2] * x2[i]
			s += v[3] * x3[i]
			y[i] = s
			v = v[4:]
		}
		return p0, p1
	}
	u0, u1 := a.u0[r0:r1][:len(y)], a.u1[r0:r1][:len(y)]
	for i := range y {
		_ = v[3]
		s := 0.0 + v[0]*x0[i]
		s += v[1] * x1[i]
		s += v[2] * x2[i]
		s += v[3] * x3[i]
		y[i] = s
		p0 += s * u0[i]
		p1 += s * u1[i]
		v = v[4:]
	}
	return p0, p1
}

//vetsparse:allocfree
func mulRun5(a *spmv, v []float64, o *[maxRunWidth]int, p0, p1 float64, r0, r1 int) (float64, float64) {
	y := a.y[r0:r1]
	x0, x1, x2, x3, x4 := a.x[r0+o[0]:][:len(y)], a.x[r0+o[1]:][:len(y)], a.x[r0+o[2]:][:len(y)], a.x[r0+o[3]:][:len(y)], a.x[r0+o[4]:][:len(y)]
	if a.u0 == nil {
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
		return p0, p1
	}
	u0, u1 := a.u0[r0:r1][:len(y)], a.u1[r0:r1][:len(y)]
	for i := range y {
		_ = v[4]
		s := 0.0 + v[0]*x0[i]
		s += v[1] * x1[i]
		s += v[2] * x2[i]
		s += v[3] * x3[i]
		s += v[4] * x4[i]
		y[i] = s
		p0 += s * u0[i]
		p1 += s * u1[i]
		v = v[5:]
	}
	return p0, p1
}
