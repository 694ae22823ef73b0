package linalg

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorAXPY(t *testing.T) {
	v := Vector{1, 2, 3}
	v.AXPY(2, Vector{10, 20, 30}, nil)
	want := Vector{21, 42, 63}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("v = %v, want %v", v, want)
		}
	}
}

func TestVectorDotAndNorm(t *testing.T) {
	v := Vector{3, 4}
	if d := v.Dot(Vector{1, 2}, nil); d != 11 {
		t.Errorf("dot = %g, want 11", d)
	}
	if n := v.Norm2(nil); !almost(n, 5, 1e-12) {
		t.Errorf("norm2 = %g, want 5", n)
	}
	if n := v.NormInf(); n != 4 {
		t.Errorf("norminf = %g, want 4", n)
	}
}

func TestWRMSNorm(t *testing.T) {
	err := Vector{0.1, 0.1}
	ref := Vector{1, 1}
	// weights = atol + rtol*|ref| = 0.1 + 0.0 -> e_i = 1 each.
	if n := err.WRMSNorm(ref, 0.1, 0, nil); !almost(n, 1, 1e-12) {
		t.Fatalf("wrms = %g, want 1", n)
	}
}

func TestOpsCounting(t *testing.T) {
	var ops Ops
	v := NewVector(10)
	v.AXPY(1, NewVector(10), &ops)
	if ops.Flops != 20 {
		t.Fatalf("flops = %d, want 20", ops.Flops)
	}
	var nilOps *Ops
	nilOps.Add(5) // must not panic
}

func TestBuilderMergesDuplicates(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2)
	b.Add(1, 1, 5)
	m := b.Build()
	if m.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2", m.NNZ())
	}
	if m.At(0, 0) != 3 || m.At(1, 1) != 5 || m.At(0, 1) != 0 {
		t.Fatalf("matrix entries wrong: %+v", m)
	}
}

func TestBuilderEmptyRows(t *testing.T) {
	b := NewBuilder(4, 4)
	b.Add(2, 2, 7)
	m := b.Build()
	y := NewVector(4)
	m.MulVec(y, Vector{1, 1, 1, 1}, nil)
	want := Vector{0, 0, 7, 0}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

// TestBuildSortedMatchesShuffled checks Build's fast path: entries added in
// row-major order, which skip the sort, must give the matrix the same
// entries added in any order give — values, pattern and stencil state.
func TestBuildSortedMatchesShuffled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nx, n = 9, 63
	var es []entry
	for r := 0; r < n; r++ {
		// The diagonal twice: two duplicates sum the same in either order.
		for _, c := range []int{r - nx, r - 1, r, r, r + 1, r + nx} {
			if c >= 0 && c < n {
				es = append(es, entry{r, c, rng.NormFloat64()})
			}
		}
	}
	build := func(es []entry) *CSR {
		b := NewBuilder(n, n)
		for _, e := range es {
			b.Add(e.r, e.c, e.v)
		}
		return b.Build()
	}
	shuffled := slices.Clone(es)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if !rowMajor(es) || rowMajor(shuffled) {
		t.Fatal("the two inputs do not take the two paths")
	}
	if got, want := build(es), build(shuffled); !reflect.DeepEqual(got, want) {
		t.Fatalf("row-major input built %+v, shuffled %+v", got, want)
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2, 2).Add(2, 0, 1)
}

func TestMulVec(t *testing.T) {
	// [[2 1 0], [0 3 0], [4 0 5]]
	b := NewBuilder(3, 3)
	b.Add(0, 0, 2)
	b.Add(0, 1, 1)
	b.Add(1, 1, 3)
	b.Add(2, 0, 4)
	b.Add(2, 2, 5)
	m := b.Build()
	y := NewVector(3)
	m.MulVec(y, Vector{1, 2, 3}, nil)
	want := Vector{4, 6, 19}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

func TestShiftedScaled(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 2)
	b.Add(0, 1, 1)
	b.Add(1, 0, -1) // no diagonal in row 1
	m := b.Build().ShiftedScaled(0.5)
	// I - 0.5*A = [[1-1, -0.5], [0.5, 1]]
	if !almost(m.At(0, 0), 0, 1e-15) || !almost(m.At(0, 1), -0.5, 1e-15) ||
		!almost(m.At(1, 0), 0.5, 1e-15) || !almost(m.At(1, 1), 1, 1e-15) {
		t.Fatalf("shifted matrix wrong: %v %v %v %v", m.At(0, 0), m.At(0, 1), m.At(1, 0), m.At(1, 1))
	}
}

// laplace1D builds the standard tridiagonal -u” stiffness matrix (SPD).
func laplace1D(n int) *CSR {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i > 0 {
			b.Add(i, i-1, -1)
		}
		if i < n-1 {
			b.Add(i, i+1, -1)
		}
	}
	return b.Build()
}

func TestBiCGStabLaplace(t *testing.T) {
	n := 64
	a := laplace1D(n)
	want := NewVector(n)
	for i := range want {
		want[i] = math.Sin(float64(i+1) / float64(n))
	}
	b := NewVector(n)
	a.MulVec(b, want, nil)
	x := NewVector(n)
	st, err := BiCGStab(a, x, b, 1e-12, 0, nil)
	if err != nil {
		t.Fatalf("BiCGStab: %v (iters %d)", err, st.Iterations)
	}
	for i := range x {
		if !almost(x[i], want[i], 1e-8) {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
	if st.Iterations == 0 {
		t.Fatal("expected nonzero iteration count")
	}
}

func TestBiCGStabNonsymmetric(t *testing.T) {
	// Advection-diffusion-like nonsymmetric matrix: 1D upwind + diffusion.
	n := 80
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 3)
		if i > 0 {
			b.Add(i, i-1, -2) // upwind advection
		}
		if i < n-1 {
			b.Add(i, i+1, -0.5)
		}
	}
	a := b.Build()
	want := NewVector(n)
	rng := rand.New(rand.NewSource(7))
	for i := range want {
		want[i] = rng.Float64() - 0.5
	}
	rhs := NewVector(n)
	a.MulVec(rhs, want, nil)
	x := NewVector(n)
	if _, err := BiCGStab(a, x, rhs, 1e-12, 0, nil); err != nil {
		t.Fatalf("BiCGStab: %v", err)
	}
	for i := range x {
		if !almost(x[i], want[i], 1e-7) {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestBiCGStabZeroRHS(t *testing.T) {
	a := laplace1D(10)
	x := NewVector(10)
	x.Fill(3)
	st, err := BiCGStab(a, x, NewVector(10), 1e-10, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 0 {
		t.Errorf("iterations = %d, want 0", st.Iterations)
	}
	for i := range x {
		if x[i] != 0 {
			t.Fatalf("x = %v, want zero vector", x)
		}
	}
}

func TestBiCGStabGoodInitialGuess(t *testing.T) {
	a := laplace1D(10)
	want := NewVector(10)
	want.Fill(1)
	b := NewVector(10)
	a.MulVec(b, want, nil)
	x := want.Clone()
	st, err := BiCGStab(a, x, b, 1e-10, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 0 {
		t.Errorf("iterations = %d, want 0 for exact initial guess", st.Iterations)
	}
}

func TestBiCGStabCountsOps(t *testing.T) {
	var ops Ops
	a := laplace1D(32)
	bv := NewVector(32)
	bv.Fill(1)
	x := NewVector(32)
	if _, err := BiCGStab(a, x, bv, 1e-10, 0, &ops); err != nil {
		t.Fatal(err)
	}
	if ops.Flops == 0 {
		t.Fatal("expected nonzero flop count")
	}
}

func TestSolveTridiag(t *testing.T) {
	n := 50
	sub := NewVector(n)
	diag := NewVector(n)
	super := NewVector(n)
	for i := 0; i < n; i++ {
		diag[i] = 2
		if i > 0 {
			sub[i] = -1
		}
		if i < n-1 {
			super[i] = -1
		}
	}
	want := NewVector(n)
	for i := range want {
		want[i] = float64(i%5) - 2
	}
	// rhs = A*want via the explicit tridiagonal product.
	rhs := NewVector(n)
	for i := 0; i < n; i++ {
		rhs[i] = diag[i] * want[i]
		if i > 0 {
			rhs[i] += sub[i] * want[i-1]
		}
		if i < n-1 {
			rhs[i] += super[i] * want[i+1]
		}
	}
	if err := SolveTridiag(sub, diag, super, rhs, nil); err != nil {
		t.Fatal(err)
	}
	for i := range rhs {
		if !almost(rhs[i], want[i], 1e-10) {
			t.Fatalf("x[%d] = %g, want %g", i, rhs[i], want[i])
		}
	}
}

func TestSolveTridiagSingular(t *testing.T) {
	n := 3
	if err := SolveTridiag(NewVector(n), NewVector(n), NewVector(n), NewVector(n), nil); err == nil {
		t.Fatal("expected error for zero pivot")
	}
}

// Property: BiCGStab solves random diagonally dominant systems to the
// requested residual.
func TestPropBiCGStabResidual(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 4
		rng := rand.New(rand.NewSource(seed))
		bld := NewBuilder(n, n)
		for i := 0; i < n; i++ {
			row := 0.0
			for j := i - 2; j <= i+2; j++ {
				if j < 0 || j >= n || j == i {
					continue
				}
				v := rng.Float64() - 0.5
				bld.Add(i, j, v)
				row += math.Abs(v)
			}
			bld.Add(i, i, row+1+rng.Float64()) // strictly dominant
		}
		a := bld.Build()
		want := NewVector(n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		rhs := NewVector(n)
		a.MulVec(rhs, want, nil)
		x := NewVector(n)
		if _, err := BiCGStab(a, x, rhs, 1e-10, 0, nil); err != nil {
			return false
		}
		r := NewVector(n)
		a.MulVec(r, x, nil)
		r.Sub(rhs, r, nil)
		return r.Norm2(nil) <= 1e-8*(1+rhs.Norm2(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: (I - s*A)x == x - s*(A x) for any vector.
func TestPropShiftedScaledConsistent(t *testing.T) {
	f := func(seed int64, sRaw uint8) bool {
		n := 12
		s := float64(sRaw) / 64
		rng := rand.New(rand.NewSource(seed))
		bld := NewBuilder(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.25 {
					bld.Add(i, j, rng.NormFloat64())
				}
			}
		}
		a := bld.Build()
		shifted := a.ShiftedScaled(s)
		x := NewVector(n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y1 := NewVector(n)
		shifted.MulVec(y1, x, nil)
		ax := NewVector(n)
		a.MulVec(ax, x, nil)
		for i := range x {
			want := x[i] - s*ax[i]
			if !almost(y1[i], want, 1e-12*(1+math.Abs(want))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
