package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// fusedLengths straddle the reduction chunk: one element, one below, at and
// above a chunk, and a ragged third chunk. None but 1024 is a multiple of
// the unroll.
var fusedLengths = []int{1, redChunk - 1, redChunk, redChunk + 1, 2*redChunk + 1}

// probeVec is randVec with signed zeros planted: -0 every 7th element and
// +0 every 11th, so a kernel that adds where the passes multiply, or drops
// an exact-zero term, shows up as a sign bit.
func probeVec(rng *rand.Rand, n int) Vector {
	v := randVec(rng, n)
	for i := range v {
		switch {
		case i%7 == 3:
			v[i] = math.Copysign(0, -1)
		case i%11 == 5:
			v[i] = 0
		}
	}
	return v
}

// TestFusedKernelsMatchPasses checks the one-sweep kernels of the
// Rosenbrock step against the multi-pass formulas they replace, written out
// here with the kernels the step called before: SetLinComb against
// SetScaled followed by AXPYs, for one to five terms and with v aliasing
// x[0]; SetAXPBYWRMS against copy, two AXPYs, SetAXPY, SetScaled and
// WRMSNorm. Every element and the norm agree bit for bit, signed zeros
// included, and so do the flop charges.
func TestFusedKernelsMatchPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	negZero := math.Copysign(0, -1)
	for _, n := range fusedLengths {
		xs := make([]Vector, 5)
		for j := range xs {
			xs[j] = probeVec(rng, n)
		}
		// The predictor's weights, and some with signed zeros.
		for _, w := range [][]float64{{1}, {2, -1}, {3, -3, 1}, {4, -6, 4, -1}, {0.3, negZero, -0.7, 0, 1.1}, {negZero}, {negZero, negZero}} {
			q := len(w)
			name := fmt.Sprintf("n=%d SetLinComb%v", n, w)
			var wantOps, gotOps Ops
			want := NewVector(n)
			want.SetScaled(w[0], xs[0], &wantOps)
			for j := 1; j < q; j++ {
				want.AXPY(w[j], xs[j], &wantOps)
			}
			got := probeVec(rng, n)
			got.SetLinComb(w, xs[:q], &gotOps)
			checkSame(t, name, got, want)
			if gotOps != wantOps {
				t.Errorf("%s charges %d flops, the passes %d", name, gotOps.Flops, wantOps.Flops)
			}
			alias := xs[0].Clone()
			nodes := append([]Vector{alias}, xs[1:q]...)
			alias.SetLinComb(w, nodes, nil)
			checkSame(t, name+" aliasing x[0]", alias, want)
		}

		u, k1, k2 := probeVec(rng, n), probeVec(rng, n), probeVec(rng, n)
		// Where u and both terms are -0 the sum must stay -0.
		if n > 3 {
			u[3], k1[3], k2[3] = negZero, negZero, negZero
		}
		for _, tau := range []float64{0.013, negZero} {
			name := fmt.Sprintf("n=%d tau=%v SetAXPBYWRMS", n, tau)
			const tol = 1e-3
			var wantOps, gotOps Ops
			wantU := NewVector(n)
			copy(wantU, u)
			wantU.AXPY(1.5*tau, k1, &wantOps)
			wantU.AXPY(0.5*tau, k2, &wantOps)
			est := NewVector(n)
			est.SetAXPY(k1, 1, k2, &wantOps)
			est.SetScaled(0.5*tau, est, &wantOps)
			wantNorm := est.WRMSNorm(u, tol, tol, &wantOps)

			got := probeVec(rng, n)
			norm := got.SetAXPBYWRMS(u, 1.5*tau, k1, 0.5*tau, k2, 0.5*tau, tol, tol, &gotOps)
			checkSame(t, name, got, wantU)
			checkSame(t, name+" norm", Vector{norm}, Vector{wantNorm})
			if gotOps != wantOps {
				t.Errorf("%s charges %d flops, the passes %d", name, gotOps.Flops, wantOps.Flops)
			}
			inPlace := u.Clone()
			norm = inPlace.SetAXPBYWRMS(inPlace, 1.5*tau, k1, 0.5*tau, k2, 0.5*tau, tol, tol, nil)
			checkSame(t, name+" aliasing y", inPlace, wantU)
			checkSame(t, name+" aliasing y, norm", Vector{norm}, Vector{wantNorm})
		}
	}
	if got := (Vector{}).SetAXPBYWRMS(nil, 1, nil, 1, nil, 1, 1, 1, nil); got != 0 {
		t.Errorf("empty SetAXPBYWRMS = %v, want 0", got)
	}
}

// TestNewCSRChecksPattern: NewCSR keeps the arrays it is given, finds the
// stencil Build would or, off the stencil path, the run table, and refuses
// a pattern Build could not have made.
func TestNewCSRChecksPattern(t *testing.T) {
	for _, c := range []struct {
		want *CSR
		mx   int // the stencil's grid width; 0: none, and a run table
	}{{gridOperator(9), 9}, {offStencil(gridOperator(9)), 0}} {
		got := viaNewCSR(t, c.want)
		if !reflect.DeepEqual(got, c.want) || got.st.mx != c.mx || (len(got.runs) == 0) != (c.mx > 0) {
			t.Fatalf("NewCSR of Build's arrays differs from Build's matrix (runs %d against %d, stencil %+v against %+v)", len(got.runs), len(c.want.runs), got.st, c.want.st)
		}
	}
	val := Vector{1, 2, 3}
	for _, c := range []struct {
		name       string
		rows, cols int
		ptr, col   []int
	}{
		{"short row pointers", 2, 2, []int{0, 3}, []int{0, 1, 1}},
		{"first pointer not 0", 2, 2, []int{1, 2, 3}, []int{0, 1, 1}},
		{"last pointer not nnz", 2, 2, []int{0, 1, 2}, []int{0, 1, 1}},
		{"falling row pointers", 2, 2, []int{0, 4, 3}, []int{0, 1, 1}},
		{"columns not ascending", 2, 2, []int{0, 2, 3}, []int{1, 0, 1}},
		{"duplicate column", 2, 2, []int{0, 2, 3}, []int{1, 1, 1}},
		{"column out of range", 2, 2, []int{0, 2, 3}, []int{0, 2, 1}},
		{"negative column", 2, 2, []int{0, 2, 3}, []int{-1, 0, 1}},
		{"columns and values differ", 2, 2, []int{0, 1, 3}, []int{0, 1}},
	} {
		if m, err := NewCSR(c.rows, c.cols, c.ptr, c.col, val); err == nil {
			t.Errorf("%s: accepted %+v", c.name, m)
		}
	}
}

// TestShiftedOperatorSharesPattern: an A that stores every diagonal lends
// the stage matrix its row pointers, column indices and run table, and the
// shared operator's matrix is the merged one's bit for bit — values,
// pattern and runs — across shift changes, a repeated shift, and an
// in-place rescale of A followed by Invalidate, flops included. An A that
// misses a diagonal keeps the merged pattern.
func TestShiftedOperatorSharesPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	zeros := gridOperator(6) // stored signed zeros: -(+0) is -0, 0-(+0) is not
	zeros.setVals(func(val []float64) { val[1], val[2], val[7] = 0, math.Copysign(0, -1), 0 })
	for _, a := range []*CSR{gridOperator(12), laplace1D(40), randomSquare(rng, 30, 0.15, 1), zeros} {
		shared, merged := NewShiftedOperator(a), newShifted(a, false)
		m := shared.Matrix()
		if shared.apos != nil || &m.rowPtr[0] != &a.rowPtr[0] || &m.colIdx[0] != &a.colIdx[0] || &m.val[0] == &a.val[0] {
			t.Fatal("a full diagonal does not share A's pattern, or shares its values")
		}
		if merged.apos == nil || &merged.Matrix().rowPtr[0] == &a.rowPtr[0] {
			t.Fatal("newShifted(a, false) shares the pattern")
		}
		check := func(what string) {
			t.Helper()
			mm := merged.Matrix()
			sameCSR(t, mm, m)
			checkSame(t, what, m.val, mm.val)
			if !reflect.DeepEqual(m.runs, mm.runs) {
				t.Fatalf("%s: shared runs %v, merged %v", what, m.runs, mm.runs)
			}
		}
		for _, s := range []float64{0.25, 0.25, -3, 1e-4} {
			var so, mo Ops
			shared.Update(s, &so)
			merged.Update(s, &mo)
			check(fmt.Sprintf("s=%g", s))
			if so != mo {
				t.Fatalf("s=%g: shared flops %d, merged %d", s, so.Flops, mo.Flops)
			}
		}
		a.setVals(func(val []float64) {
			for i := range val {
				val[i] *= -1.5
			}
		})
		shared.Invalidate()
		merged.Invalidate()
		shared.Update(1e-4, nil)
		merged.Update(1e-4, nil)
		check("after rescale and Invalidate")
		sameCSR(t, scaledWant(a, 1e-4), m)
	}
	b := NewBuilder(4, 4)
	for r := 0; r < 4; r++ {
		if r != 2 {
			b.Add(r, r, -2)
		}
		if r > 0 {
			b.Add(r, r-1, 1)
		}
	}
	a := b.Build()
	op := NewShiftedOperator(a)
	if op.apos == nil || op.Matrix().NNZ() != a.NNZ()+1 {
		t.Fatal("a missing diagonal shares A's pattern")
	}
	sameCSR(t, scaledWant(a, 0.5), op.Update(0.5, nil))
}
