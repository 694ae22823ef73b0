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
// of BiCGStab on zeroLines(n) against randVec(seed 23) in phaseTestSizes
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
// one it replaced, bit for bit, with a team and without.
func TestLineFactorWithoutCouplingsIsJacobi(t *testing.T) {
	lowerParMin(t)
	rng := rand.New(rand.NewSource(23))
	tm := NewTeam(3)
	defer tm.Close()
	for gi, n := range phaseTestSizes() {
		a, b, g := zeroLines(n), randVec(rng, n), goldenJacobi[gi]
		for _, team := range []*Team{nil, tm} {
			ws := NewWorkspace()
			ws.SetTeam(team)
			x := NewVector(n)
			st, err := ws.BiCGStab(a, x, b, 1e-10, 300, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := vectorSHA(x); got != g.sha || st.Iterations != g.iters || math.Float64bits(st.Residual) != g.residual {
				t.Errorf("n=%d team=%d: %d iterations, residual %#x, digest %s; Jacobi %d, %#x, %s",
					n, team.Size(), st.Iterations, math.Float64bits(st.Residual), got, g.iters, g.residual, g.sha)
			}
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
		a := c.a
		name := fmt.Sprintf("%d rows, step %d", a.Rows, c.step)
		var inter, natural lineFactor
		inter.factor(a, nil)
		if inter.step != c.step {
			t.Fatalf("%s: interleave step %d, want %d", name, inter.step, c.step)
		}
		natural.analyse(a)
		natural.lines = 1
		natural.factor(a, nil)
		checkSame(t, 1, name+" multipliers", inter.w, natural.w)
		checkSame(t, 1, name+" inverted pivots", inter.inv, natural.inv)
		checkSame(t, 1, name+" upper entries", inter.u, natural.u)
		b := randVec(rng, a.Rows)
		xi, xn := NewVector(a.Rows), NewVector(a.Rows)
		inter.solve(xi, b, nil)
		natural.solve(xn, b, nil)
		checkSame(t, 1, name+" sweeps", xi, xn)

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
		checkSame(t, 1, name+" BiCGStab", y, x)
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
	for k := dented.RowPtr[36]; k < dented.RowPtr[37]; k++ {
		if dented.ColIdx[k] == 36 {
			dented.Val[k] = 0
		}
	}
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
