package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// stencilCoeffs are five distinct coefficients (south, west, centre, east,
// north), so a kernel that pairs one with the wrong neighbour shows.
var stencilCoeffs = [5]float64{-0.9, -1.3, 4.1, -0.7, -0.6}

// stencilOperator builds the mx x my 5-point operator with coefficients c
// through the Builder, rows row-major, each row's in-grid neighbours only.
func stencilOperator(mx, my int, c [5]float64) *CSR {
	n := mx * my
	b := NewBuilder(n, n)
	for r := 0; r < n; r++ {
		i, j := r%mx, r/mx
		if j > 0 {
			b.Add(r, r-mx, c[stS])
		}
		if i > 0 {
			b.Add(r, r-1, c[stW])
		}
		b.Add(r, r, c[stC])
		if i < mx-1 {
			b.Add(r, r+1, c[stE])
		}
		if j < my-1 {
			b.Add(r, r+mx, c[stN])
		}
	}
	return b.Build()
}

// viaNewCSR rebuilds m through NewCSR from copies of its arrays.
func viaNewCSR(t *testing.T, m *CSR) *CSR {
	t.Helper()
	got, err := NewCSR(m.Rows, m.Cols, append([]int(nil), m.rowPtr...), append([]int(nil), m.colIdx...), append([]float64(nil), m.val...))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// stencilCuts are the rows worth cutting an mx x my stencil at: every row
// of the first three and last three lines, and the first, second, last but
// one and last row of every other line.
func stencilCuts(mx, my int) []int {
	n := mx * my
	var cuts []int
	for r := 1; r < n; r++ {
		i, j := r%mx, r/mx
		if j < 3 || j >= my-3 || i <= 1 || i >= mx-2 {
			cuts = append(cuts, r)
		}
	}
	return cuts
}

// checkStencilSpans checks m*x against the reference split in two at every
// cut, and over spans that start and end inside lines: only the span's
// rows are written.
func checkStencilSpans(t *testing.T, name string, m *CSR, x Vector) {
	t.Helper()
	want := refMulVec(m, x)
	got := NewVector(m.Rows)
	poison := func() {
		for i := range got {
			got[i] = math.NaN()
		}
	}
	cuts := stencilCuts(m.st.mx, m.st.my)
	for _, c := range cuts {
		poison()
		m.mulVecSpan(&spmv{y: got, x: x}, c, m.Rows)
		m.mulVecSpan(&spmv{y: got, x: x}, 0, c)
		checkSame(t, fmt.Sprintf("%s split at %d", name, c), got, want)
	}
	for k := 0; k+7 < len(cuts); k += 7 {
		r0, r1 := cuts[k], cuts[k+7]
		poison()
		m.mulVecSpan(&spmv{y: got, x: x}, r0, r1)
		checkSame(t, fmt.Sprintf("%s span [%d,%d)", name, r0, r1), got[r0:r1], want[r0:r1])
		if !math.IsNaN(got[r0-1]) || r1 < m.Rows && !math.IsNaN(got[r1]) {
			t.Fatalf("%s: span [%d,%d) wrote outside itself", name, r0, r1)
		}
	}
}

// TestBitIdentitySpMVStencil pins the stencil SpMV to the reference row
// loop and the reference chunked dots, bit for bit: on grids from 2x2 to
// family-wide's, split at every line edge and cut at 1024-row chunks
// mid-line, on random x, on x with planted signed zeros and on x = -0
// against |c|, whose products are all -0 and whose rows must still come out
// +0. Both constructors recognise the stencil; a one-column or one-line
// operator and one with a value an ulp off do not, and keep the run path.
// The stage matrix of a ShiftedOperator is a stencil after Update at either
// of two shifts, equal to a freshly built (1/s)*I - A, and setVals moves a
// matrix off the path and back as its values stop and start being uniform.
func TestBitIdentitySpMVStencil(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, sh := range [][2]int{{2, 2}, {2, 5}, {3, 3}, {3, 511}, {511, 3}, {7, 255}, {127, 127}, {63, 255}} {
		mx, my := sh[0], sh[1]
		name := fmt.Sprintf("%dx%d", mx, my)
		m := stencilOperator(mx, my, stencilCoeffs)
		if m.st != (stencil{mx: mx, my: my, c: stencilCoeffs}) {
			t.Fatalf("%s: Build found stencil %+v", name, m.st)
		}
		if got := viaNewCSR(t, m); !reflect.DeepEqual(got, m) {
			t.Fatalf("%s: NewCSR found stencil %+v, Build %+v", name, got.st, m.st)
		}
		for _, x := range []Vector{randVec(rng, m.Cols), probeVec(rng, m.Cols)} {
			checkSpMV(t, name, m, x)
			checkStencilSpans(t, name, m, x)
		}
		var abs [5]float64
		for d, c := range stencilCoeffs {
			abs[d] = math.Abs(c)
		}
		pos := stencilOperator(mx, my, abs)
		negZero := NewVector(pos.Cols)
		negZero.Fill(math.Copysign(0, -1))
		checkSpMV(t, name+" -0", pos, negZero)
		checkStencilSpans(t, name+" -0", pos, negZero)
	}

	off := stencilOperator(9, 7, stencilCoeffs)
	off.setVals(func(val []float64) { val[40] = math.Nextafter(val[40], math.Inf(1)) })
	for _, c := range []struct {
		name string
		m    *CSR
	}{
		{"1x40", stencilOperator(1, 40, stencilCoeffs)},
		{"40x1", stencilOperator(40, 1, stencilCoeffs)},
		{"9x7 one ulp off", off},
		{"9x7 one ulp off, NewCSR", viaNewCSR(t, off)},
	} {
		if c.m.st.mx != 0 {
			t.Fatalf("%s: taken for a stencil %+v", c.name, c.m.st)
		}
		checkSpMV(t, c.name, c.m, probeVec(rng, c.m.Cols))
	}

	a := stencilOperator(31, 9, stencilCoeffs)
	op := NewShiftedOperator(a)
	for _, s := range []float64{0.25, -3e-3} {
		got := op.Update(s, nil)
		var c [5]float64
		for d := range c {
			c[d] = -stencilCoeffs[d]
		}
		c[stC] = 1/s + c[stC]
		want := stencilOperator(31, 9, c)
		if got.st != want.st || want.st.mx == 0 {
			t.Fatalf("s=%g: Update wrote stencil %+v, a fresh (1/s)*I - A has %+v", s, got.st, want.st)
		}
		checkSame(t, fmt.Sprintf("s=%g values", s), got.val, want.val)
		checkSpMV(t, fmt.Sprintf("s=%g", s), got, probeVec(rng, got.Cols))
	}

	m := stencilOperator(17, 5, stencilCoeffs)
	k := m.rowPtr[40] + 2 // row 40's centre
	m.setVals(func(val []float64) { val[k] = 2 })
	if m.st.mx != 0 {
		t.Fatal("setVals left a non-uniform diagonal on the stencil path")
	}
	checkSpMV(t, "written centre", m, probeVec(rng, m.Cols))
	m.setVals(func(val []float64) {
		for p := range val {
			if val[p] == stencilCoeffs[stC] {
				val[p] = 2
			}
		}
	})
	if want := (stencil{mx: 17, my: 5, c: [5]float64{-0.9, -1.3, 2, -0.7, -0.6}}); m.st != want {
		t.Fatalf("setVals of a uniform diagonal found %+v, want %+v", m.st, want)
	}
	checkSpMV(t, "rewritten centres", m, probeVec(rng, m.Cols))
}
