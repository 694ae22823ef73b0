package linalg

import "math"

// A stencil records that a CSR is a uniform 5-point grid operator: row
// r = i + j*mx of an mx x my grid (mx, my >= 2, rows row-major) stores, in
// column order, the in-grid subset of its south r-mx, west r-1, centre r,
// east r+1 and north r+mx neighbours (no +-1 link crosses a line), and each
// of the five diagonals holds one value, compared by bits, so -0 and NaN
// payloads count as values of their own. Its SpMV takes the five values
// from c and reads no val. A zero mx means the matrix is not one.
type stencil struct {
	mx, my int
	c      [5]float64 // south, west, centre, east, north
}

// The five diagonals, in column order.
const (
	stS = iota
	stW
	stC
	stE
	stN
)

// stencilScan recognises a stencil one row at a time, inside the pass over
// the rows that a constructor makes anyway. Rows must come in order.
type stencilScan struct {
	st   stencil
	r    int   // the next row
	i, j int   // its column and line on the grid
	seen uint8 // the diagonals whose value c already holds
}

// newStencilScan reads the grid width off row 0, which must store columns
// 0, 1 and mx; a pattern that cannot be an mx x my grid scans as none.
func newStencilScan(rows, cols int, rowPtr, colIdx []int) stencilScan {
	var s stencilScan
	if rows != cols || rows < 4 || rowPtr[1]-rowPtr[0] != 3 || colIdx[0] != 0 || colIdx[1] != 1 {
		return s
	}
	if mx := colIdx[2]; mx >= 2 && rows%mx == 0 && rows/mx >= 2 {
		s.st.mx, s.st.my = mx, rows/mx
	}
	return s
}

// row checks the next row's columns and values and clears the scan's
// stencil, coefficients too, on the first entry that does not fit.
func (s *stencilScan) row(cols []int, vals []float64) {
	st := &s.st
	if st.mx == 0 {
		return
	}
	k := 0
	for d, off := range [5]int{-st.mx, -1, 0, 1, st.mx} {
		switch {
		case d == stS && s.j == 0, d == stW && s.i == 0, d == stE && s.i == st.mx-1, d == stN && s.j == st.my-1:
			continue
		}
		if k == len(cols) || cols[k] != s.r+off {
			*st = stencil{}
			return
		}
		if s.seen&(1<<d) == 0 {
			st.c[d] = vals[k]
			s.seen |= 1 << d
		} else if math.Float64bits(vals[k]) != math.Float64bits(st.c[d]) {
			*st = stencil{}
			return
		}
		k++
	}
	if k != len(cols) {
		*st = stencil{}
		return
	}
	s.r++
	if s.i++; s.i == st.mx {
		s.i, s.j = 0, s.j+1
	}
}

// stencilOf returns m's stencil, or none.
func stencilOf(m *CSR) stencil {
	s := newStencilScan(m.Rows, m.Cols, m.rowPtr, m.colIdx)
	for r := 0; r < m.Rows && s.st.mx > 0; r++ {
		s.row(m.colIdx[m.rowPtr[r]:m.rowPtr[r+1]], m.val[m.rowPtr[r]:m.rowPtr[r+1]])
	}
	return s.st
}

// setVals is the one way to change a stored value after construction
// besides ShiftedOperator.Update: f rewrites m's values in place (the
// pattern stays), and m's stencil and lane masks are found afresh from
// them.
func (m *CSR) setVals(f func(val []float64)) {
	f(m.val)
	m.st = stencilOf(m)
	m.masks = laneMasks(m.st.mx)
}

// mulStencil computes rows [r0, r1) of y = A*x for a stencil operator with
// the coefficients of st, and returns the dots <y, u0> and <y, u1> of the
// rows fed in row order into p0 and p1 (a nil u0: neither), like the row
// loop. Each row is the row loop's sum over the entries it stores, in
// storage order: 0.0 + c_S*x_S, then + c_W*x_W, + c_C*x_C, + c_E*x_E,
// + c_N*x_N, each term where the neighbour is in the grid. The
// span takes up to three stretches: rows of the first line (no south), of
// the middle lines, of the last line (no north). Each stretch slices its
// operands once, relative to its first row; inside a line the rows between
// the first and the last take a loop that tests no position, and the
// middle stretch steps from line to line by its column counter: one
// division a span finds the first row's column.
//
//vetsparse:allocfree
func mulStencil(a *spmv, st *stencil, p0, p1 float64, r0, r1 int) (float64, float64) {
	mx, n := st.mx, st.mx*st.my
	cs, cw, cc, ce, cn := st.c[stS], st.c[stW], st.c[stC], st.c[stE], st.c[stN]
	x, dots := a.x, a.u0 != nil
	r := r0
	// The first line: row 0, its interior, row mx-1.
	if r == 0 {
		s := 0.0 + cc*x[0]
		s += ce * x[1]
		s += cn * x[mx]
		a.y[0] = s
		if dots {
			p0 += s * a.u0[0]
			p1 += s * a.u1[0]
		}
		r = 1
	}
	if e := min(r1, mx-1); r < e {
		y := a.y[r:e]
		xw, xc, xe, xn := x[r-1:][:len(y)], x[r:][:len(y)], x[r+1:][:len(y)], x[r+mx:][:len(y)]
		if !dots {
			for k := range y {
				s := 0.0 + cw*xw[k]
				s += cc * xc[k]
				s += ce * xe[k]
				s += cn * xn[k]
				y[k] = s
			}
		} else {
			u0, u1 := a.u0[r:e][:len(y)], a.u1[r:e][:len(y)]
			for k := range y {
				s := 0.0 + cw*xw[k]
				s += cc * xc[k]
				s += ce * xe[k]
				s += cn * xn[k]
				y[k] = s
				p0 += s * u0[k]
				p1 += s * u1[k]
			}
		}
		r = e
	}
	if r == mx-1 && r < r1 {
		s := 0.0 + cw*x[r-1]
		s += cc * x[r]
		s += cn * x[r+mx]
		a.y[r] = s
		if dots {
			p0 += s * a.u0[r]
			p1 += s * a.u1[r]
		}
		r = mx
	}
	// The middle lines, each a first row (no west), its interior and a
	// last row (no east).
	if e := min(r1, n-mx); r < e {
		y := a.y[r:e]
		m := uint(len(y))
		xs, xw, xc, xe, xn := x[r-mx:][:m], x[r-1:][:m], x[r:][:m], x[r+1:][:m], x[r+mx:][:m]
		u0, u1 := a.u0, a.u1
		if !dots { // sliced all the same, so that no row checks the bounds
			u0, u1 = a.y, a.y
		}
		u0, u1 = u0[r:e][:m], u1[r:e][:m]
		last := uint(mx - 1)
		i := uint(r - r/mx*mx) // the column of the stretch's first row
		for k := uint(0); k < m; {
			switch i {
			case 0:
				s := 0.0 + cs*xs[k]
				s += cc * xc[k]
				s += ce * xe[k]
				s += cn * xn[k]
				y[k] = s
				if dots {
					p0 += s * u0[k]
					p1 += s * u1[k]
				}
				k, i = k+1, 1
			case last:
				s := 0.0 + cs*xs[k]
				s += cw * xw[k]
				s += cc * xc[k]
				s += cn * xn[k]
				y[k] = s
				if dots {
					p0 += s * u0[k]
					p1 += s * u1[k]
				}
				k, i = k+1, 0
			default:
				ke := min(m, k+last-i)
				i += ke - k
				if !dots {
					for ; k < ke; k++ {
						s := 0.0 + cs*xs[k]
						s += cw * xw[k]
						s += cc * xc[k]
						s += ce * xe[k]
						s += cn * xn[k]
						y[k] = s
					}
				} else {
					for ; k < ke; k++ {
						s := 0.0 + cs*xs[k]
						s += cw * xw[k]
						s += cc * xc[k]
						s += ce * xe[k]
						s += cn * xn[k]
						y[k] = s
						p0 += s * u0[k]
						p1 += s * u1[k]
					}
				}
			}
		}
		r = e
	}
	// The last line: its first row, its interior, row n-1.
	if r == n-mx && r < r1 {
		s := 0.0 + cs*x[r-mx]
		s += cc * x[r]
		s += ce * x[r+1]
		a.y[r] = s
		if dots {
			p0 += s * a.u0[r]
			p1 += s * a.u1[r]
		}
		r++
	}
	if e := min(r1, n-1); r < e {
		y := a.y[r:e]
		xs, xw, xc, xe := x[r-mx:][:len(y)], x[r-1:][:len(y)], x[r:][:len(y)], x[r+1:][:len(y)]
		if !dots {
			for k := range y {
				s := 0.0 + cs*xs[k]
				s += cw * xw[k]
				s += cc * xc[k]
				s += ce * xe[k]
				y[k] = s
			}
		} else {
			u0, u1 := a.u0[r:e][:len(y)], a.u1[r:e][:len(y)]
			for k := range y {
				s := 0.0 + cs*xs[k]
				s += cw * xw[k]
				s += cc * xc[k]
				s += ce * xe[k]
				y[k] = s
				p0 += s * u0[k]
				p1 += s * u1[k]
			}
		}
		r = e
	}
	if r == n-1 && r < r1 {
		s := 0.0 + cs*x[r-mx]
		s += cw * x[r-1]
		s += cc * x[r]
		a.y[r] = s
		if dots {
			p0 += s * a.u0[r]
			p1 += s * a.u1[r]
		}
	}
	return p0, p1
}
