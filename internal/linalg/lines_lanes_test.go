package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameFloat reports whether a and b are the same float64 bit for bit, or
// both NaN: which of two NaN operands an operation returns, and so its
// payload, is the hardware's choice and the compiler's operand order, not
// the kernel's arithmetic.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// checkSameBits is checkSame up to sameFloat.
func checkSameBits(t *testing.T, what string, got, want Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// lineCoeffs couple the x-lines (first) or the y-lines (second) more
// strongly, with five distinct coefficients each.
var lineCoeffs = [2][5]float64{
	{-0.3, -1.3, 4.1, -0.7, -0.2},
	{-1.1, -0.3, 4.3, -0.2, -0.9},
}

// lineGridSizes are the line counts and lengths the line lane tests cover:
// fewer lines than a group, every remainder of a group of four and of a
// batch, and the family's lines.
var lineGridSizes = []int{2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20, 21, 23, 31, 33, 36, 37, 63}

// generalPath returns a view of the stencil a that the line factor takes
// for a general CSR: the same arrays without the stencil.
func generalPath(a *CSR) *CSR {
	g := *a
	g.st = stencil{}
	return &g
}

// TestLineFactorStencilMatchesRows: on a stencil the line factor computes
// one line's factors, and they are every row's factors of the general path
// by bits; its solve (in Go, and in lanes where the host has them) returns
// the general path's bits, its flops are the general path's, and it chose
// the same direction.
func TestLineFactorStencilMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for dir, c := range lineCoeffs {
		for _, mx := range []int{2, 3, 5, 8, 31, 63} {
			for _, my := range []int{2, 3, 7, 16, 33} {
				a := stencilOperator(mx, my, c)
				name := fmt.Sprintf("%dx%d, coefficients %d", mx, my, dir)
				var lf, gen lineFactor
				var lops, gops Ops
				lf.factor(a, &lops)
				gen.factor(generalPath(a), &gops)
				if lf.m == 0 || gen.m != 0 || lf.d != gen.d || lf.step != gen.step || lf.diag || lops != gops {
					t.Fatalf("%s: line form %d, offset %d/%d, step %d/%d, diagonal %v, flops %d/%d", name, lf.m, lf.d, gen.d, lf.step, gen.step, lf.diag, lops.Flops, gops.Flops)
				}
				for r := 0; r < a.Rows; r++ {
					p := r % mx
					if lf.d > 1 {
						p = r / mx
					}
					if !sameFloat(lf.w[p], gen.w[r]) || !sameFloat(lf.u[p], gen.u[r]) || !sameFloat(lf.inv[p], gen.inv[r]) {
						t.Fatalf("%s: row %d's factors differ from position %d's", name, r, p)
					}
				}
				b := randVec(rng, a.Rows)
				want := NewVector(a.Rows)
				gen.solve(want, b, &gops)
				eachKernel(t, func(t *testing.T) {
					got := NewVector(a.Rows)
					var ops Ops
					lf.solve(got, b, &ops)
					checkSameBits(t, name, got, want)
					if ops.Flops != 5*int64(a.Rows) {
						t.Fatalf("%s: solve charged %d flops", name, ops.Flops)
					}
				})
			}
		}
	}
}

// TestNonStencilKeepsRowFactors: an operator that is no stencil (a
// variable-coefficient one, a grid one line wide) keeps one factor entry a
// row.
func TestNonStencilKeepsRowFactors(t *testing.T) {
	for _, a := range []*CSR{offStencil(advDiff2D(31, 7, 1)), advDiff2D(1, 40, 1), advDiff2D(40, 1, 1), tridiagOperator(50)} {
		var lf lineFactor
		lf.factor(a, nil)
		if lf.m != 0 || len(lf.inv) != a.Rows {
			t.Fatalf("%d rows: line form %d with %d inverted pivots", a.Rows, lf.m, len(lf.inv))
		}
	}
}

// lineProbes are the special operands the line lane tests put into b.
var lineProbes = []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}

// checkLineLanes solves with lf on b through the lane kernels and through
// the Go sweeps and requires the same bits in every row of x, and no write
// outside it.
func checkLineLanes(t *testing.T, name string, lf *lineFactor, b Vector) {
	t.Helper()
	n, g := len(b), 8
	var outs [2]Vector
	for k, lanes := range []bool{true, false} {
		buf := NewVector(n + 2*g)
		for i := range buf {
			buf[i] = math.Float64frombits(0x7ff8dead0000beef)
		}
		useLanes = lanes
		lf.solve(buf[g:g+n:g+n], b, nil)
		outs[k] = buf
	}
	useLanes = true
	checkSameBits(t, name, outs[0], outs[1])
}

// TestLineLanesMatchGo runs the line sweeps through the lane kernels and
// through Go on stencils of both directions over lineGridSizes, with b
// random, with a probe at one line's position in each group and batch, and
// with probes everywhere in one line, and requires the same bits.
func TestLineLanesMatchGo(t *testing.T) {
	if !useLanes {
		t.Skip("no lane kernels on this host")
	}
	defer func() { useLanes = true }()
	rng := rand.New(rand.NewSource(61))
	for dir, c := range lineCoeffs {
		for _, lines := range lineGridSizes {
			for _, m := range []int{2, 3, 4, 5, 7, 8, 9, 31} {
				mx, my := m, lines
				if dir == 1 {
					mx, my = lines, m
				}
				a := stencilOperator(mx, my, c)
				var lf lineFactor
				lf.factor(a, nil)
				if lf.m != m {
					t.Fatalf("%dx%d: line length %d, want %d", mx, my, lf.m, m)
				}
				name := fmt.Sprintf("%dx%d", mx, my)
				b := randVec(rng, a.Rows)
				checkLineLanes(t, name, &lf, b)
				for _, probe := range lineProbes {
					pb := b.Clone()
					for r := 0; r < a.Rows; r += 5 {
						pb[r] = probe
					}
					checkLineLanes(t, fmt.Sprintf("%s, %v every fifth row", name, probe), &lf, pb)
				}
			}
		}
	}
}

// FuzzLineLanes compares the line sweeps in lanes with the Go sweeps on an
// mx x my stencil (mx, my 2 to 64) with the fuzzer's coefficients, and b
// drawn from seed with a probe at every stride-th row.
func FuzzLineLanes(f *testing.F) {
	if !useLanes {
		f.Skip("no lane kernels on this host")
	}
	for dir, c := range lineCoeffs {
		for _, lines := range lineGridSizes {
			mx, my := uint8(9), uint8(lines)
			if dir == 1 {
				mx, my = my, mx
			}
			f.Add(mx, my, int64(lines), c[0], c[1], c[2], c[3], c[4], uint8(lines))
		}
	}
	f.Fuzz(func(t *testing.T, mx, my uint8, seed int64, cs, cw, cc, ce, cn float64, probe uint8) {
		defer func() { useLanes = true }()
		a := stencilOperator(2+int(mx)%63, 2+int(my)%63, [5]float64{cs, cw, cc, ce, cn})
		var lf lineFactor
		lf.factor(a, nil)
		b := randVec(rand.New(rand.NewSource(seed)), a.Rows)
		for r := int(probe) % 3; r < a.Rows; r += 1 + int(probe)%11 {
			b[r] = lineProbes[int(probe)%len(lineProbes)]
		}
		checkLineLanes(t, fmt.Sprintf("%dx%d", a.st.mx, a.st.my), &lf, b)
	})
}
