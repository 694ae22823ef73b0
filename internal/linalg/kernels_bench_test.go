package linalg

import (
	"fmt"
	"testing"
)

// gridOperator assembles the 5-point upwind/central advection-diffusion
// stencil of an n x n interior grid — the level-5 sparse-grid operator is
// n = 2^(2+5) - 1 = 127 — without importing internal/pde (which would be
// an import cycle: grid depends on linalg).
func gridOperator(n int) *CSR {
	h := 1.0 / float64(n+1)
	dw := 0.01 / (h * h)
	aw := 1.0 / h
	as := 0.5 / h
	diag := -4*dw - aw - as
	b := NewBuilder(n*n, n*n)
	idx := func(ix, iy int) int { return iy*n + ix }
	for iy := 0; iy < n; iy++ {
		for ix := 0; ix < n; ix++ {
			row := idx(ix, iy)
			b.Add(row, row, diag)
			if ix > 0 {
				b.Add(row, idx(ix-1, iy), dw+aw)
			}
			if ix < n-1 {
				b.Add(row, idx(ix+1, iy), dw)
			}
			if iy > 0 {
				b.Add(row, idx(ix, iy-1), dw+as)
			}
			if iy < n-1 {
				b.Add(row, idx(ix, iy+1), dw)
			}
		}
	}
	return b.Build()
}

// level5 is the interior dimension of the level-5 paper grid (root 2).
const level5 = 1<<7 - 1

// BenchmarkShiftedScaled is the seed path: a full Builder assembly of
// I - s*A on every step-size change.
func BenchmarkShiftedScaled(b *testing.B) {
	a := gridOperator(level5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := 0.01 + float64(i%7)*1e-4 // vary s as the controller does
		_ = a.ShiftedScaled(s)
	}
}

// BenchmarkShiftedUpdate is the in-place path: a shift change rewrites only
// the n diagonal values of the cached matrix (1/s)*I - A, where
// ShiftedScaled assembles all nnz. Must beat BenchmarkShiftedScaled by >= 5x.
func BenchmarkShiftedUpdate(b *testing.B) {
	a := gridOperator(level5)
	op := NewShiftedOperator(a)
	op.Update(0.01, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := 0.01 + float64(i%7)*1e-4
		op.Update(s, nil)
	}
}

// BenchmarkShiftedUpdateHeld measures the skip path: the controller kept
// the step, so the matrix is already current.
func BenchmarkShiftedUpdateHeld(b *testing.B) {
	a := gridOperator(level5)
	op := NewShiftedOperator(a)
	op.Update(0.01, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Update(0.01, nil)
	}
}

// kernelShapes are the interior dimensions the kernel benchmarks sweep: the
// level-5 square, a mid-family rectangle, the two anisotropic ends of a
// family (long diagonal runs, and 3-wide rows with no runs at all), and the
// two aspect ratios of the family-wide workload's largest grids.
var kernelShapes = [][2]int{{127, 127}, {63, 31}, {511, 3}, {3, 511}, {255, 63}, {63, 255}}

// benchShapes runs fn as one sub-benchmark per kernel shape (its name the
// shape plus suffix) on the shifted stencil operator, or with off set on the
// same operator nudged off the stencil path (offStencil), and reports its
// time per stored entry.
func benchShapes(b *testing.B, suffix string, off bool, fn func(b *testing.B, a *CSR)) {
	for _, sh := range kernelShapes {
		a := advDiff2D(sh[0], sh[1], 1)
		if off {
			offStencil(a)
		}
		b.Run(fmt.Sprintf("%dx%d%s", sh[0], sh[1], suffix), func(b *testing.B) {
			b.ReportAllocs()
			fn(b, a)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(a.NNZ()), "ns/nnz")
		})
	}
}

// BenchmarkMulVec times the product alone and with one and two reductions
// riding along — <y, x>, then <y, y> beside it — as BiCGStab passes them:
// through the stencil kernel, and (suffix -runs) through the run kernels
// and the row loop that a non-uniform operator takes.
func BenchmarkMulVec(b *testing.B) {
	for i, suffix := range []string{"", "+dot", "+2dots", "-runs", "-runs+dot", "-runs+2dots"} {
		dots := i % 3
		benchShapes(b, suffix, i >= 3, func(b *testing.B, a *CSR) {
			x := NewVector(a.Cols)
			y := NewVector(a.Rows)
			for i := range x {
				x[i] = float64(i%13) - 6
			}
			u0, u1 := [...]Vector{nil, x, x}[dots], [...]Vector{nil, nil, y}[dots]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if u0 == nil {
					a.MulVec(y, x, nil)
				} else {
					a.mulVecDot(y, x, u0, u1, nil)
				}
			}
		})
	}
}

func BenchmarkILUSolve(b *testing.B) {
	benchShapes(b, "", false, func(b *testing.B, a *CSR) {
		f, err := NewILU0(a, nil)
		if err != nil {
			b.Fatal(err)
		}
		rhs := NewVector(a.Rows)
		x := NewVector(a.Rows)
		for i := range rhs {
			rhs[i] = float64(i%13) - 6
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Solve(x, rhs, nil)
		}
	})
}

// BenchmarkBuilderBuild measures the one-time assembly with the O(nnz)
// counting sort (the seed used sort.Slice).
func BenchmarkBuilderBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gridOperator(level5)
	}
}

// TestShiftedUpdateAllocFree asserts the in-place update allocates
// nothing.
func TestShiftedUpdateAllocFree(t *testing.T) {
	a := gridOperator(31)
	op := NewShiftedOperator(a)
	op.Update(0.01, nil)
	s := 0.01
	if n := testing.AllocsPerRun(100, func() {
		s += 1e-6
		op.Update(s, nil)
	}); n != 0 {
		t.Fatalf("ShiftedOperator.Update allocates %v per call, want 0", n)
	}
}
