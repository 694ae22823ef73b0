package linalg

import (
	"fmt"
	"strings"
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
// family (long grid lines, and lines three points long), and the two aspect
// ratios of the family-wide workload's largest grids.
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
// through the stencil kernel the host runs (four lanes where it has AVX2),
// through the Go stencil kernel (suffix -go), and through the row loop that
// a non-uniform operator takes (suffix -rows).
func BenchmarkMulVec(b *testing.B) {
	for _, kernel := range []struct {
		suffix        string
		goKernel, off bool
	}{{"", false, false}, {"-go", true, false}, {"-rows", false, true}} {
		for dots, suffix := range []string{"", "+dot", "+2dots"} {
			benchShapes(b, kernel.suffix+suffix, kernel.off, func(b *testing.B, a *CSR) {
				if kernel.goKernel {
					goKernels(b)
				}
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
}

// lineShapes are kernelShapes and the rest of a root-2 family's anisotropic
// grids: lines 31, 15 and 7 points long and their transposes.
var lineShapes = append(kernelShapes[:len(kernelShapes):len(kernelShapes)], [2]int{31, 63}, [2]int{15, 127}, [2]int{127, 15}, [2]int{7, 255}, [2]int{255, 7})

// kernelSuffixes names the two kernel sets the kernel benchmarks run: the
// lanes where the host has them (no suffix), and the Go kernels ("-go").
var kernelSuffixes = []string{"", "-go"}

// BenchmarkLineSolve times the line factor's solve on the stage matrix of
// each lineShapes grid, with its lanes and in Go (suffix -go), per row.
func BenchmarkLineSolve(b *testing.B) {
	for _, suffix := range kernelSuffixes {
		for _, sh := range lineShapes {
			a := advDiff2D(sh[0], sh[1], 1)
			var lf lineFactor
			lf.factor(a, nil)
			x, rhs := NewVector(a.Rows), NewVector(a.Rows)
			for i := range rhs {
				rhs[i] = float64(i%13) - 6
			}
			b.Run(fmt.Sprintf("%dx%d%s", sh[0], sh[1], suffix), func(b *testing.B) {
				if suffix != "" {
					goKernels(b)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					lf.solve(x, rhs, nil)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(a.Rows), "ns/row")
			})
		}
	}
}

// BenchmarkVectorKernels times each vector lane case without aliasing, and
// dotChunks and sStepChunks, which have no lanes, at the lengths of the
// lineShapes grids, with the lanes and in Go (suffix -go), per element.
func BenchmarkVectorKernels(b *testing.B) {
	seen := map[int]bool{}
	var lengths []int
	for _, sh := range lineShapes {
		if n := sh[0] * sh[1]; !seen[n] {
			seen[n] = true
			lengths = append(lengths, n)
		}
	}
	cases := []vectorCase{
		{"dotChunks", func(v []Vector, c [4]float64) []float64 { return []float64{dotChunks(v[0], v[1], nil)} }},
		{"sStepChunks", func(v []Vector, c [4]float64) []float64 { return []float64{sStepChunks(v[0], v[1], c[0], v[2], nil)} }},
	}
	for _, vc := range vectorCases {
		if !strings.Contains(vc.name, "=") {
			cases = append(cases, vc)
		}
	}
	c := [4]float64{0.71, -1.3, 0.37, 2.5e-2}
	for _, vc := range cases {
		for _, suffix := range kernelSuffixes {
			for _, n := range lengths {
				ops := make([]Vector, vectorOperands)
				for j := range ops {
					ops[j] = NewVector(n)
					for i := range ops[j] {
						ops[j][i] = float64((i+j)%13) - 6
					}
				}
				b.Run(fmt.Sprintf("%s/%d%s", strings.ReplaceAll(vc.name, " ", ""), n, suffix), func(b *testing.B) {
					if suffix != "" {
						goKernels(b)
					}
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						vc.run(ops, c)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
				})
			}
		}
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
