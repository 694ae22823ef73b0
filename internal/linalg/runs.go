package linalg

// A rowRun is a maximal block of consecutive positions [r0, r1) of a row
// sequence whose rows step by a constant and all store w entries at the
// same column offsets off[:w] from their row — the diagonals of a stencil
// operator. Inside a run the index arrays carry no information beyond the
// values. A CSR's sequence is its rows (step 1): row r's entries sit at
// Val[RowPtr[r0]+(r-r0)*w:][:w] and multiply x[r+off[0]], x[r+off[1]], …,
// so SpMV streams Val against w shifted views of x without loading a column
// index. ILU(0)'s sweeps run along their level schedules (ilu.go), where a
// grid level's rows step by the grid width minus one.
type rowRun struct {
	r0, r1 int
	w      int
	step   int
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

// findRuns returns the diagonal runs of m's rows that have an unrolled
// SpMV kernel.
func findRuns(m *CSR) []rowRun {
	return seqRuns(nil, m.RowPtr, m.ColIdx, func(run rowRun) bool { return run.w >= minRunWidth })
}

// seqRuns analyses a sequence of rows in O(nnz), once per pattern:
// position p is row rows[p] (p itself if rows is nil) with stored columns
// col[ptr[p]:ptr[p+1]]. It returns, in order, the maximal blocks of at
// least minRunRows positions whose rows step by a constant, whose entries
// sit at the same offsets from their row, at most maxRunWidth of them, and
// that keep accepts. The table is counted first and allocated at its exact
// size.
func seqRuns[I int | int32](rows, ptr, col []I, keep func(run rowRun) bool) []rowRun {
	n := len(ptr) - 1
	runAt := func(p int) (run rowRun, ok bool) {
		r, e, step := rowAt(rows, p), p+1, 0
		if e < n {
			step = rowAt(rows, e) - r
		}
	grow:
		for ; e < n && rowAt(rows, e)-rowAt(rows, e-1) == step; e++ {
			prev, cur := col[ptr[e-1]:ptr[e]], col[ptr[e]:ptr[e+1]]
			if len(cur) != len(prev) {
				break
			}
			for j, c := range cur {
				if int(c) != int(prev[j])+step {
					break grow
				}
			}
		}
		run = rowRun{r0: p, r1: e, w: int(ptr[p+1] - ptr[p]), step: step}
		if e-p < minRunRows || run.w > maxRunWidth {
			return run, false
		}
		for j, c := range col[ptr[p]:ptr[p+1]] {
			run.off[j] = int(c) - r
		}
		return run, keep(run)
	}
	count := 0
	for p := 0; p < n; {
		run, ok := runAt(p)
		if ok {
			count++
		}
		p = run.r1
	}
	if count == 0 {
		return nil
	}
	runs := make([]rowRun, 0, count)
	for p := 0; p < n; {
		run, ok := runAt(p)
		if ok {
			runs = append(runs, run)
		}
		p = run.r1
	}
	return runs
}

// rowAt returns the row at position p of a sequence: rows[p], or p itself
// if rows is nil.
func rowAt[I int | int32](rows []I, p int) int {
	if rows == nil {
		return p
	}
	return int(rows[p])
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
