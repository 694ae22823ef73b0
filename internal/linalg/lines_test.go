package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// lineOf returns the rows of the grid line through row r at offset d on an
// nx x ny grid numbered row by row: an x-line for d = 1, a y-line for d = nx.
func lineOf(nx, ny, d, r int) []int {
	var rows []int
	if d == 1 {
		for i := 0; i < nx; i++ {
			rows = append(rows, r-r%nx+i)
		}
		return rows
	}
	for j := 0; j < ny; j++ {
		rows = append(rows, r%nx+j*nx)
	}
	return rows
}

// TestLineFactorSolvesGridLines: on the stage matrices of the thinnest grids
// of a family, 3 x 511 and 511 x 3 interior points, the line factor takes
// the strongly coupled direction — the 511-point lines, offset nx and 1 —
// and its solve is SolveTridiag applied line by line, to rounding (the
// factor multiplies by inverted pivots where SolveTridiag divides).
func TestLineFactorSolvesGridLines(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, c := range []struct{ nx, ny, d, step int }{{3, 511, 3, 1}, {511, 3, 1, 511}} {
		a := advDiff2D(c.nx, c.ny, 1)
		var lf lineFactor
		lf.factor(a, nil)
		if lf.d != c.d || lf.step != c.step || lf.diag {
			t.Fatalf("%dx%d: offset %d step %d diagonal-only %v, want offset %d step %d", c.nx, c.ny, lf.d, lf.step, lf.diag, c.d, c.step)
		}
		b := randVec(rng, a.Rows)
		x := NewVector(a.Rows)
		lf.solve(x, b, nil)
		for first := 0; first < a.Rows; first++ {
			rows := lineOf(c.nx, c.ny, c.d, first)
			if rows[0] != first {
				continue
			}
			m := len(rows)
			sub, diag, super, rhs := NewVector(m), NewVector(m), NewVector(m), NewVector(m)
			for i, r := range rows {
				diag[i], rhs[i] = a.At(r, r), b[r]
				if i > 0 {
					sub[i] = a.At(r, rows[i-1])
				}
				if i < m-1 {
					super[i] = a.At(r, rows[i+1])
				}
			}
			if err := SolveTridiag(sub, diag, super, rhs, nil); err != nil {
				t.Fatal(err)
			}
			for i, r := range rows {
				if !almost(x[r], rhs[i], 1e-12*(1+math.Abs(rhs[i]))) {
					t.Fatalf("%dx%d: line from row %d, row %d: %g, SolveTridiag %g", c.nx, c.ny, first, r, x[r], rhs[i])
				}
			}
		}
	}
}

// zeroLines builds an operator whose entries at offsets ±1 and ±5 (the
// stride: the largest offset above the diagonal) are stored zeros, coupled
// only at -3 and +2: a matrix with no line couplings. Its line factor is the
// diagonal to the bit.
func zeroLines(n int) *CSR {
	b := NewBuilder(n, n)
	for r := 0; r < n; r++ {
		for _, e := range []struct {
			off int
			v   float64
		}{{-5, 0}, {-3, -1.1}, {-1, 0}, {0, 4 + 0.5*math.Sin(float64(r))}, {1, 0}, {2, -0.9}, {5, 0}} {
			if c := r + e.off; c >= 0 && c < n {
				b.Add(r, c, e.v)
			}
		}
	}
	return b.Build()
}

// goldenJacobi are the iteration counts, residual bits and solution digests
// of BiCGStab on zeroLines(n) against randVec(seed 23) in goldenSizes
// order, recorded at the last commit whose BiCGStab was preconditioned by
// the Jacobi diagonal. Flops are not compared: the line factor charges its
// recurrences.
var goldenJacobi = []golden{
	{1023, 16, 0x3dd2813f7d718694, 0, "36cc9eb0049adf06d6507b059d113ae9bdfd5ca4a9778425b8589ca8659e8450"},
	{1024, 15, 0x3dce5b95cb3f08cb, 0, "00901f38292554360804a433db79aefc1016242bf4af138a85f2b0d5375b0439"},
	{1025, 15, 0x3dd5d43a73ea13af, 0, "881248052ca926369ee9004c595848bb254698e17346018ca7bd3c7ee626eb4b"},
	{3089, 15, 0x3dd9dc8d7d14c02f, 0, "4fb3b49b95f1363df8b345722b37ca0d64787bc78033605957025480c45444d0"},
	{5000, 16, 0x3dba28f95b2706f2, 0, "dfc894bebb886ab5849c817db426657c44e2d0dae55a3ad956040443e725dc16"},
}

// TestLineFactorWithoutCouplingsIsJacobi: where a matrix has no line
// couplings the line-preconditioned BiCGStab is the Jacobi-preconditioned
// one it replaced, bit for bit.
func TestLineFactorWithoutCouplingsIsJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for gi, n := range goldenSizes() {
		a, b, g := zeroLines(n), randVec(rng, n), goldenJacobi[gi]
		x := NewVector(n)
		st, err := NewWorkspace().BiCGStab(a, x, b, 1e-10, 300, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := vectorSHA(x); got != g.sha || st.Iterations != g.iters || math.Float64bits(st.Residual) != g.residual {
			t.Errorf("n=%d: %d iterations, residual %#x, digest %s; Jacobi %d, %#x, %s",
				n, st.Iterations, math.Float64bits(st.Residual), got, g.iters, g.residual, g.sha)
		}
	}
}

// TestLineSweepOrderBitIdentical: on rectangles whose x-lines carry the
// factor, the interleaved order — one position of every line at a time —
// gives the factors, the sweeps and a whole BiCGStab solve of natural row
// order bit for bit. Shapes that are not rectangles, or whose y-lines win,
// take row order themselves.
func TestLineSweepOrderBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, c := range []struct {
		a    *CSR
		step int
	}{
		{advDiff2D(511, 3, 1), 511}, {advDiff2D(63, 31, 1), 63}, {advDiff2D(40, 40, 1), 40}, {fivePointOperator(1024), 32},
		{fivePointOperator(1025), 1}, {advDiff2D(3, 511, 1), 1}, {tridiagOperator(500), 1}, {randomPattern(rng, 300), 1},
	} {
		a := generalPath(c.a) // a stencil's one-line factor has one order (TestLineFactorStencilMatchesRows)
		name := fmt.Sprintf("%d rows, step %d", a.Rows, c.step)
		var inter, natural lineFactor
		inter.factor(a, nil)
		if inter.step != c.step {
			t.Fatalf("%s: interleave step %d, want %d", name, inter.step, c.step)
		}
		natural.analyse(a)
		natural.lines = 1
		natural.factor(a, nil)
		checkSame(t, name+" multipliers", inter.w, natural.w)
		checkSame(t, name+" inverted pivots", inter.inv, natural.inv)
		checkSame(t, name+" upper entries", inter.u, natural.u)
		b := randVec(rng, a.Rows)
		xi, xn := NewVector(a.Rows), NewVector(a.Rows)
		inter.solve(xi, b, nil)
		natural.solve(xn, b, nil)
		checkSame(t, name+" sweeps", xi, xn)

		ws := NewWorkspace()
		ws.lines.analyse(a)
		ws.lines.lines = 1
		x := NewVector(a.Rows)
		stN, errN := ws.BiCGStab(a, x, b, 1e-10, 0, nil)
		y := NewVector(a.Rows)
		stI, errI := BiCGStab(a, y, b, 1e-10, 0, nil)
		if errN != nil || errI != nil || stN != stI {
			t.Fatalf("%s: natural order %+v %v, interleaved %+v %v", name, stN, errN, stI, errI)
		}
		checkSame(t, name+" BiCGStab", y, x)
	}
}

// TestLineFactorZeroDiagonal: where a pivot is zero or not finite the line
// factor drops its couplings for the diagonal, 1 where the diagonal is 0,
// and BiCGStab either converges or reports a breakdown or the budget spent —
// never a NaN answer.
func TestLineFactorZeroDiagonal(t *testing.T) {
	skew := NewBuilder(8, 8) // zero diagonal: every line's first pivot is 0
	for i := 0; i < 8; i++ {
		if i > 0 {
			skew.Add(i, i-1, -1)
		}
		if i < 7 {
			skew.Add(i, i+1, 1)
		}
	}
	dented := advDiff2D(12, 9, 1) // one zero on an otherwise dominant diagonal, first on its x-line
	dented.setVals(func(val []float64) {
		for k := dented.rowPtr[36]; k < dented.rowPtr[37]; k++ {
			if dented.colIdx[k] == 36 {
				val[k] = 0
			}
		}
	})
	for _, c := range []struct {
		name string
		a    *CSR
	}{{"skew 8x8", skew.Build()}, {"12x9, row 36 zero", dented}} {
		name, a := c.name, c.a
		var lf lineFactor
		lf.factor(a, nil)
		if !lf.diag {
			t.Fatalf("%s: a zero pivot left the line couplings in place", name)
		}
		for r, v := range lf.inv {
			if want := 1 / a.At(r, r); a.At(r, r) == 0 && v != 1 || a.At(r, r) != 0 && v != want {
				t.Fatalf("%s: row %d inverted pivot %g with diagonal %g", name, r, v, a.At(r, r))
			}
		}
		b := NewVector(a.Rows)
		b.Fill(1)
		x := NewVector(a.Rows)
		st, err := BiCGStab(a, x, b, 1e-10, 200, nil)
		if err != nil && err != ErrBreakdown && err != ErrNoConvergence {
			t.Fatalf("%s: %v", name, err)
		}
		if err == nil && !(st.Residual <= 1e-10) {
			t.Errorf("%s: converged with residual %g", name, st.Residual)
		}
		for i, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s (%v after %d iterations): x[%d] = %g", name, err, st.Iterations, i, v)
			}
		}
		t.Logf("%s: %d iterations, %v", name, st.Iterations, err)
	}
}

// TestLineFactorCache: the line factor is kept under (matrix identity, key)
// as ILUFor keeps ILU(0). A repeated key reuses it, after the values moved
// too, and adds no flops; a new key or another matrix refactors; a NaN key
// never repeats; and a pivot failure that fell back to the diagonal is kept
// under its key like factors are. Through the workspace, a repeated key
// solves as the first solve did, bit for bit, minus the factor's 4n flops.
func TestLineFactorCache(t *testing.T) {
	a, other := advDiff2D(63, 31, 1), advDiff2D(63, 31, 2)
	n := int64(a.Rows)
	var lf lineFactor
	factorFlops := func(m *CSR, key float64) int64 {
		var ops Ops
		lf.factorFor(m, key, &ops)
		return ops.Flops
	}
	if f := factorFlops(a, 1); f != 4*n {
		t.Fatalf("first factorization charged %d flops, want %d", f, 4*n)
	}
	kept := lf.inv.Clone()
	a.setVals(func(val []float64) { // new values behind the same pointer, as a step writes them
		for i := range val {
			val[i] *= 1.25
		}
	})
	if f := factorFlops(a, 1); f != 0 {
		t.Errorf("repeated key refactored (%d flops)", f)
	}
	checkSame(t, "repeated key", lf.inv, kept)
	if f := factorFlops(a, 2); f != 4*n {
		t.Errorf("new key charged %d flops, want %d", f, 4*n)
	}
	var fresh lineFactor
	fresh.factor(a, nil)
	checkSame(t, "new key", lf.inv, fresh.inv)
	if f := factorFlops(other, 2); f != 4*n {
		t.Errorf("another matrix under the same key charged %d flops, want %d", f, 4*n)
	}
	for i := 0; i < 2; i++ {
		if f := factorFlops(other, math.NaN()); f != 4*n {
			t.Errorf("NaN key, call %d: %d flops, want %d", i, f, 4*n)
		}
	}

	dented := advDiff2D(12, 9, 1) // row 36's zero diagonal breaks its x-line
	k := dented.rowPtr[36]
	for dented.colIdx[k] != 36 {
		k++
	}
	d36 := dented.val[k]
	dented.setVals(func(val []float64) { val[k] = 0 })
	if factorFlops(dented, 3); !lf.diag {
		t.Fatal("premise: a zero pivot must fall back to the diagonal")
	}
	dented.setVals(func(val []float64) { val[k] = d36 })
	if f := factorFlops(dented, 3); f != 0 || !lf.diag {
		t.Errorf("the fallback was not kept under its key: %d flops, diagonal-only %v", f, lf.diag)
	}
	if factorFlops(dented, 4); lf.diag {
		t.Error("a new key kept the fallback of a matrix that now factors")
	}

	rng := rand.New(rand.NewSource(59))
	b := randVec(rng, a.Rows)
	ws := NewWorkspace()
	var xs [3]Vector
	var sts [3]SolveStats
	var ops [3]Ops
	for i, key := range []float64{5, 5, math.NaN()} {
		xs[i] = NewVector(a.Rows)
		var err error
		if sts[i], err = ws.BiCGStabLines(a, xs[i], b, 1e-10, 0, key, &ops[i]); err != nil {
			t.Fatal(err)
		}
	}
	if sts[1] != sts[0] || sts[2] != sts[0] || ops[0].Flops-ops[1].Flops != 4*n || ops[2] != ops[0] {
		t.Errorf("key 5, 5, NaN: %+v %+v %+v, %d %d %d flops; want one answer, the repeat %d flops cheaper",
			sts[0], sts[1], sts[2], ops[0].Flops, ops[1].Flops, ops[2].Flops, 4*n)
	}
	checkSame(t, "repeated key solve", xs[1], xs[0])
	checkSame(t, "NaN key solve", xs[2], xs[0])

	// BiCGStabILU's fallback keeps its line factor under the ILU key: once
	// the zero pivot is cached, a solve after the values moved is the keyed
	// line solve's, bit for bit and flop for flop. Row 2 of this matrix
	// eliminates to 1 - 1*1 = 0 under ILU(0); its x-lines factor.
	zeroPivot := func() *CSR {
		b := NewBuilder(4, 4)
		for _, e := range [][3]float64{{0, 0, 1}, {0, 1, -2}, {0, 2, 1}, {1, 0, -2}, {1, 1, 11}, {1, 3, -0.5},
			{2, 0, 1}, {2, 2, 1}, {2, 3, -2}, {3, 1, -0.5}, {3, 2, -2}, {3, 3, 11}} {
			b.Add(int(e[0]), int(e[1]), e[2])
		}
		return b.Build()
	}
	zi, zl := zeroPivot(), zeroPivot()
	if _, err := NewILU0(zi, nil); err == nil {
		t.Fatal("premise: ILU(0) must meet a zero pivot")
	}
	wsI, wsL := NewWorkspace(), NewWorkspace()
	zb := Vector{1, -0.5, 0.25, 2}
	for round := 0; round < 2; round++ {
		if round == 1 {
			for _, z := range []*CSR{zi, zl} {
				z.setVals(func(val []float64) {
					for i := range val {
						val[i] *= 1.25
					}
				})
			}
		}
		xi, xl := NewVector(4), NewVector(4)
		var oi, ol Ops
		sti, erri := wsI.BiCGStabILU(zi, xi, zb, 1e-10, 0, 9, &oi)
		stl, errl := wsL.BiCGStabLines(zl, xl, zb, 1e-10, 0, 9, &ol)
		if erri != nil || errl != nil || sti != stl || round == 1 && oi != ol {
			t.Errorf("round %d: ILU fallback %+v %v, %d flops; keyed line solve %+v %v, %d flops",
				round, sti, erri, oi.Flops, stl, errl, ol.Flops)
		}
		checkSame(t, fmt.Sprintf("ILU fallback, round %d", round), xi, xl)
	}
}
