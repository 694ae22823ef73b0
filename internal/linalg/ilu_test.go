package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestILU0ExactForTridiagonal(t *testing.T) {
	// For a tridiagonal matrix ILU(0) has no dropped fill, so it is the
	// exact LU factorization: one application solves the system.
	n := 30
	a := laplace1D(n)
	f, err := NewILU0(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := NewVector(n)
	for i := range want {
		want[i] = math.Sin(float64(i))
	}
	b := NewVector(n)
	a.MulVec(b, want, nil)
	x := NewVector(n)
	f.Solve(x, b, nil)
	for i := range x {
		if !almost(x[i], want[i], 1e-10) {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestILU0RequiresDiagonal(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	if _, err := NewILU0(b.Build(), nil); err == nil {
		t.Fatal("expected error for missing diagonal")
	}
}

func TestILU0RejectsRectangular(t *testing.T) {
	b := NewBuilder(2, 3)
	b.Add(0, 0, 1)
	if _, err := NewILU0(b.Build(), nil); err == nil {
		t.Fatal("expected error for rectangular matrix")
	}
}

// advDiff2D builds the 5-point upwind advection-diffusion operator used by
// the application (shifted as in a Rosenbrock stage) on an nx x ny grid.
func advDiff2D(nx, ny int, shift float64) *CSR {
	n := nx * ny
	b := NewBuilder(n, n)
	hx, hy := 1.0/float64(nx+1), 1.0/float64(ny+1)
	d := 0.01
	a1, a2 := 1.0, 0.5
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			row := j*nx + i
			diag := shift + 2*d/(hx*hx) + 2*d/(hy*hy) + a1/hx + a2/hy
			b.Add(row, row, diag)
			if i > 0 {
				b.Add(row, row-1, -d/(hx*hx)-a1/hx)
			}
			if i < nx-1 {
				b.Add(row, row+1, -d/(hx*hx))
			}
			if j > 0 {
				b.Add(row, row-nx, -d/(hy*hy)-a2/hy)
			}
			if j < ny-1 {
				b.Add(row, row+nx, -d/(hy*hy))
			}
		}
	}
	return b.Build()
}

func TestBiCGStabILUSolves(t *testing.T) {
	a := advDiff2D(24, 24, 1)
	n := a.Rows
	rng := rand.New(rand.NewSource(5))
	want := NewVector(n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	rhs := NewVector(n)
	a.MulVec(rhs, want, nil)
	x := NewVector(n)
	st, err := BiCGStabILU(a, x, rhs, 1e-11, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !almost(x[i], want[i], 1e-7) {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
	if st.Iterations == 0 {
		t.Fatal("no iterations recorded")
	}
}

// TestAnisotropicOperatorBothPreconditioners: on an anisotropic end grid of
// a sparse-grid family (128 x 4 cells), where BiCGStab with a Jacobi
// diagonal needs 147 iterations, the line factor and ILU(0) each take the
// strong direction and finish in a few (6 and 5), and they agree on the
// solution.
func TestAnisotropicOperatorBothPreconditioners(t *testing.T) {
	a := advDiff2D(127, 3, 0.5)
	n := a.Rows
	rhs := NewVector(n)
	rhs.Fill(1)

	xL := NewVector(n)
	stL, err := BiCGStab(a, xL, rhs, 1e-10, 10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	xI := NewVector(n)
	stI, err := BiCGStabILU(a, xI, rhs, 1e-10, 10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stL.Iterations > 10 || stI.Iterations > 10 {
		t.Fatalf("line factor took %d iterations, ILU %d; want at most 10 each", stL.Iterations, stI.Iterations)
	}
	for i := range xI {
		if !almost(xI[i], xL[i], 1e-6*(1+math.Abs(xL[i]))) {
			t.Fatalf("solutions disagree at %d: %g vs %g", i, xI[i], xL[i])
		}
	}
	t.Logf("line factor %d iterations, ILU %d", stL.Iterations, stI.Iterations)
}

func TestBiCGStabILUZeroRHS(t *testing.T) {
	a := advDiff2D(8, 8, 1)
	x := NewVector(a.Rows)
	x.Fill(1)
	if _, err := BiCGStabILU(a, x, NewVector(a.Rows), 1e-10, 0, nil); err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("x not zeroed for zero rhs")
		}
	}
}

// Property: applying ILU0.Solve to A*x reproduces x exactly when A is
// tridiagonal (no fill dropped), for random diagonally dominant systems.
func TestPropILU0ExactTridiagonal(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(n, n)
		for i := 0; i < n; i++ {
			row := 0.0
			if i > 0 {
				v := rng.NormFloat64()
				b.Add(i, i-1, v)
				row += math.Abs(v)
			}
			if i < n-1 {
				v := rng.NormFloat64()
				b.Add(i, i+1, v)
				row += math.Abs(v)
			}
			b.Add(i, i, row+1+rng.Float64())
		}
		a := b.Build()
		fac, err := NewILU0(a, nil)
		if err != nil {
			return false
		}
		want := NewVector(n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		rhs := NewVector(n)
		a.MulVec(rhs, want, nil)
		x := NewVector(n)
		fac.Solve(x, rhs, nil)
		for i := range x {
			if !almost(x[i], want[i], 1e-8*(1+math.Abs(want[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refILU0 is the row-major ILU(0) the packed factor must reproduce bit for
// bit: IKJ elimination in natural row order on a CSR-shaped value array, and
// triangular solves that walk the rows 0..n-1 and n-1..0.
type refILU0 struct {
	a     *CSR
	val   []float64
	diag  []int
	flops int64
}

func newRefILU0(a *CSR) (*refILU0, error) {
	f := &refILU0{a: a, val: append([]float64(nil), a.val...), diag: make([]int, a.Rows)}
	colPos := make([]int, a.Rows)
	for i := range colPos {
		colPos[i] = -1
	}
	for i := 0; i < a.Rows; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			colPos[a.colIdx[k]] = k
			if a.colIdx[k] == i {
				f.diag[i] = k
			}
		}
		for k := a.rowPtr[i]; a.colIdx[k] < i; k++ {
			j := a.colIdx[k]
			lij := f.val[k] / f.val[f.diag[j]]
			f.val[k] = lij
			f.flops++
			for kk := f.diag[j] + 1; kk < a.rowPtr[j+1]; kk++ {
				if p := colPos[a.colIdx[kk]]; p >= 0 {
					f.val[p] -= lij * f.val[kk]
					f.flops += 2
				}
			}
		}
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			colPos[a.colIdx[k]] = -1
		}
		if f.val[f.diag[i]] == 0 {
			return nil, ErrBreakdown
		}
	}
	return f, nil
}

func (f *refILU0) solve(x, b Vector) {
	a := f.a
	for i := 0; i < a.Rows; i++ {
		s := b[i]
		for k := a.rowPtr[i]; k < f.diag[i]; k++ {
			s -= f.val[k] * x[a.colIdx[k]]
		}
		x[i] = s
	}
	for i := a.Rows - 1; i >= 0; i-- {
		s := x[i]
		for k := f.diag[i] + 1; k < a.rowPtr[i+1]; k++ {
			s -= f.val[k] * x[a.colIdx[k]]
		}
		x[i] = s / f.val[f.diag[i]]
	}
}

// checkILU compares f's Solve with the row-major reference of a, with x
// apart from b and aliasing it, flops included.
func checkILU(t *testing.T, name string, f *ILU0, a *CSR, facOps Ops, b Vector) {
	t.Helper()
	ref, err := newRefILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	if facOps.Flops != ref.flops {
		t.Errorf("%s: factorization counted %d flops, reference %d", name, facOps.Flops, ref.flops)
	}
	want := NewVector(a.Rows)
	ref.solve(want, b)
	got := NewVector(a.Rows)
	var ops Ops
	f.Solve(got, b, &ops)
	checkSame(t, name+" Solve", got, want)
	if want := 2 * int64(a.NNZ()); ops.Flops != want {
		t.Errorf("%s: Solve counted %d flops, want %d", name, ops.Flops, want)
	}
	copy(got, b)
	f.Solve(got, got, nil)
	checkSame(t, name+" Solve in place", got, want)
}

// withExtras copies the 5-point operator a of an nx-wide grid and couples
// every 37th row to the row two grid lines below and every 41st to the row
// two above: the level schedules stay as they are, but each such row leaves
// the run of its level mid-way.
func withExtras(a *CSR, nx int) *CSR {
	b := NewBuilder(a.Rows, a.Cols)
	for r := 0; r < a.Rows; r++ {
		for k := a.rowPtr[r]; k < a.rowPtr[r+1]; k++ {
			b.Add(r, a.colIdx[k], a.val[k])
		}
		if r%37 == 5 && r >= 2*nx {
			b.Add(r, r-2*nx, -0.5)
		}
		if r%41 == 7 && r+2*nx < a.Rows {
			b.Add(r, r+2*nx, -0.5)
		}
	}
	return b.Build()
}

// TestBitIdentityILUPacked pins the level-ordered factor to the row-major
// reference after NewILU0 and after each of several Refactors with changed
// values, on the stencil shapes — family-wide's aspect ratios among them,
// whose sweeps are mostly runs, and a stencil whose runs break mid-level —
// and on an irregular pattern.
func TestBitIdentityILUPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	dominant := randomPattern(rng, 200)
	dominant.setVals(func(val []float64) {
		for r := 0; r < dominant.Rows; r++ {
			for k := dominant.rowPtr[r]; k < dominant.rowPtr[r+1]; k++ {
				if dominant.colIdx[k] == r {
					val[k] += 20 // strictly dominant: no zero pivot
				}
			}
		}
	})
	for _, c := range []struct {
		name string
		a    *CSR
	}{
		{"63x31", advDiff2D(63, 31, 1)},
		{"3x511", advDiff2D(3, 511, 1)},
		{"511x3", advDiff2D(511, 3, 1)},
		{"255x63", advDiff2D(255, 63, 1)},
		{"63x255", advDiff2D(63, 255, 1)},
		{"63x31 extras", withExtras(advDiff2D(63, 31, 1), 63)},
		{"40x40", gridOperator(40)},
		{"random", dominant},
		{"1D", laplace1D(50)},
		// (1/s)*I - A at s = -0.01: -(100*I + A), dominant with negative pivots.
		{"shifted", NewShiftedOperator(advDiff2D(31, 9, 0)).Update(-0.01, nil)},
	} {
		name, a := c.name, c.a
		b := randVec(rng, a.Rows)
		var ops Ops
		f, err := NewILU0(a, &ops)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkILU(t, name, f, a, ops, b)
		for round := 1; round <= 3; round++ {
			a.setVals(func(val []float64) {
				for i := range val {
					val[i] *= 1 + 0.01*rng.Float64()
				}
			})
			ops = Ops{}
			if err := f.Refactor(a, &ops); err != nil {
				t.Fatalf("%s refactor %d: %v", name, round, err)
			}
			checkILU(t, name+" refactored", f, a, ops, b)
		}
	}
}

// TestILURefactorZeroPivot: a Refactor that breaks down reports it, and the
// factor object recovers on the next Refactor with sound values.
func TestILURefactorZeroPivot(t *testing.T) {
	build := func(d float64) *CSR {
		b := NewBuilder(3, 3)
		for i := 0; i < 3; i++ {
			b.Add(i, i, d)
			if i > 0 {
				b.Add(i, i-1, 1)
				b.Add(i-1, i, 1)
			}
		}
		return b.Build()
	}
	good := build(4)
	f, err := NewILU0(good, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Refactor(build(1), nil); err == nil { // row 1: 1 - 1*1 = 0
		t.Fatal("expected a zero-pivot error")
	}
	if _, err := NewILU0(build(1), nil); err == nil {
		t.Fatal("expected a zero-pivot error from NewILU0")
	}
	var ops Ops
	if err := f.Refactor(good, &ops); err != nil {
		t.Fatal(err)
	}
	checkILU(t, "after breakdown", f, good, ops, Vector{1, 2, 3})
}

// TestILURunsCoverStencil: on family-wide's grid shapes the carrying runs
// cover at least 90 % of both sweeps' positions, every run's rows step as
// the run says and hold its offsets, and Solve takes the run kernels there:
// with the index arrays inside the runs overwritten — all but the row a
// backward run starts from — it still returns the same bits.
func TestILURunsCoverStencil(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for _, sh := range [][2]int{{127, 127}, {255, 63}} {
		a := advDiff2D(sh[0], sh[1], 1)
		f, err := NewILU0(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		b := randVec(rng, a.Rows)
		want := NewVector(a.Rows)
		f.Solve(want, b, nil)
		sweeps := []struct {
			name string
			runs []rowRun
			w    int
			row  func(p int) int
			ptr  []int32
		}{
			{"forward", f.fwdRuns, 2, func(p int) int { return int(f.fwdRows[p]) }, f.lptr},
			{"backward", f.bwdRuns, 3, func(p int) int { return int(f.col[f.uptr[p]]) }, f.uptr},
		}
		for _, sw := range sweeps {
			covered := 0
			for _, run := range sw.runs {
				if run.w != sw.w || run.step != sh[0]-1 || run.step+run.off[run.w-2] != run.off[run.w-1] {
					t.Fatalf("%dx%d %s: run %+v carries nothing", sh[0], sh[1], sw.name, run)
				}
				for p := run.r0; p < run.r1; p++ {
					r := sw.row(p)
					if r != sw.row(run.r0)+(p-run.r0)*run.step {
						t.Fatalf("%dx%d %s: position %d is row %d, off run %+v", sh[0], sh[1], sw.name, p, r, run)
					}
					for j, c := range f.col[sw.ptr[p]:sw.ptr[p+1]] {
						if int(c)-r != run.off[j] {
							t.Fatalf("%dx%d %s: row %d entry %d at offset %d, run says %d", sh[0], sh[1], sw.name, r, j, int(c)-r, run.off[j])
						}
					}
				}
				covered += run.r1 - run.r0
			}
			if share := float64(covered) / float64(a.Rows); share < 0.9 {
				t.Errorf("%dx%d %s: runs cover %.3f of the positions, want >= 0.9", sh[0], sh[1], sw.name, share)
			}
		}
		for _, run := range f.fwdRuns {
			for p := run.r0; p < run.r1; p++ {
				if p > run.r0 {
					f.fwdRows[p] = 0
				}
				for k := f.lptr[p]; k < f.lptr[p+1]; k++ {
					f.col[k] = 0
				}
			}
		}
		for _, run := range f.bwdRuns {
			for k := f.uptr[run.r0] + 1; k < f.uptr[run.r1]; k++ {
				f.col[k] = 0
			}
		}
		got := NewVector(a.Rows)
		f.Solve(got, b, nil)
		checkSame(t, fmt.Sprintf("%dx%d Solve on runs", sh[0], sh[1]), got, want)
	}
}

// TestBiCGStabNonFiniteStops: a NaN in b, or a +Inf in the matrix, ends a
// solve with either preconditioner as a breakdown within two iterations
// instead of running all 4n, and ILU(0) reports an infinite pivot as a
// breakdown (BiCGStabILU then falls back to the line factor).
func TestBiCGStabNonFiniteStops(t *testing.T) {
	withInf := func(r, c int) *CSR {
		a := advDiff2D(31, 31, 1)
		a.setVals(func(val []float64) {
			for k := a.rowPtr[r]; k < a.rowPtr[r+1]; k++ {
				if a.colIdx[k] == c {
					val[k] = math.Inf(1)
				}
			}
		})
		return a
	}
	if _, err := NewILU0(withInf(200, 200), nil); err == nil {
		t.Error("ILU(0) accepted an infinite pivot")
	}
	good := advDiff2D(31, 31, 1)
	ones := NewVector(good.Rows)
	ones.Fill(1)
	nanB := ones.Clone()
	nanB[100] = math.NaN()
	for _, c := range []struct {
		name string
		a    *CSR
		b    Vector
	}{
		{"NaN in b", good, nanB},
		{"+Inf pivot", withInf(200, 200), ones},
		{"+Inf coupling", withInf(200, 201), ones},
	} {
		for _, s := range []struct {
			name  string
			solve func(a *CSR, x, b Vector, tol float64, maxIter int, ops *Ops) (SolveStats, error)
		}{{"lines", BiCGStab}, {"ILU", BiCGStabILU}} {
			st, err := s.solve(c.a, NewVector(c.a.Rows), c.b, 1e-8, 0, nil)
			if !errors.Is(err, ErrBreakdown) || st.Iterations > 2 {
				t.Errorf("%s, %s: %d iterations, err %v; want a breakdown within 2", c.name, s.name, st.Iterations, err)
			}
		}
	}
}
