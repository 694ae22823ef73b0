package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refMulVec is the reference SpMV the run kernels must reproduce bit for
// bit: per row, a fresh +0 accumulator and one indexed multiply-add per
// stored entry, in storage order.
func refMulVec(m *CSR, x Vector) Vector {
	y := NewVector(m.Rows)
	for r := 0; r < m.Rows; r++ {
		s := 0.0
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			s += m.val[k] * x[m.colIdx[k]]
		}
		y[r] = s
	}
	return y
}

// randomPattern builds an n x n matrix with a diagonal and a few entries
// per row at random columns: no two consecutive rows share their offsets.
func randomPattern(rng *rand.Rand, n int) *CSR {
	b := NewBuilder(n, n)
	for r := 0; r < n; r++ {
		b.Add(r, r, 4+rng.Float64())
		for j := 0; j < 1+rng.Intn(5); j++ {
			b.Add(r, rng.Intn(n), rng.NormFloat64())
		}
	}
	return b.Build()
}

// banded builds an n x n matrix whose rows hold the 2*half+1 diagonals
// that fit: half = 3 gives 7-wide interior rows, wider than any unrolled
// run kernel, between narrower boundary rows.
func banded(rng *rand.Rand, n, half int) *CSR {
	b := NewBuilder(n, n)
	for r := 0; r < n; r++ {
		for c := r - half; c <= r+half; c++ {
			if c >= 0 && c < n {
				b.Add(r, c, rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

// withWideRow copies m and widens row r to 9 stored entries, so that a row
// no run kernel handles sits between two runs.
func withWideRow(rng *rand.Rand, m *CSR, r int) *CSR {
	b := NewBuilder(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			b.Add(i, m.colIdx[k], m.val[k])
		}
	}
	for c, w := 0, m.rowPtr[r+1]-m.rowPtr[r]; w < 9; c += 2 {
		if m.At(r, c) == 0 {
			b.Add(r, c, rng.NormFloat64())
			w++
		}
	}
	return b.Build()
}

// hollowStencil is the 5-point stencil with no stored diagonal: the
// Jacobian shape whose ShiftedOperator has to insert every diagonal entry.
func hollowStencil(rng *rand.Rand, nx, ny int) *CSR {
	n := nx * ny
	b := NewBuilder(n, n)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			row := j*nx + i
			if i > 0 {
				b.Add(row, row-1, rng.NormFloat64())
			}
			if i < nx-1 {
				b.Add(row, row+1, rng.NormFloat64())
			}
			if j > 0 {
				b.Add(row, row-nx, rng.NormFloat64())
			}
			if j < ny-1 {
				b.Add(row, row+nx, rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

// offStencil nudges one stored value of m by an ulp through setVals, so a
// uniform grid operator leaves the stencil path and multiplies through its
// run table and row loop, as a non-uniform operator does; it returns m.
func offStencil(m *CSR) *CSR {
	k := len(m.val) / 2
	m.setVals(func(val []float64) { val[k] = math.Nextafter(val[k], math.Inf(1)) })
	return m
}

// runCuts returns the row boundaries worth splitting m at: the first,
// second, middle and last row of every run and the row past it, or a few
// fixed rows when the matrix has no runs.
func runCuts(m *CSR) []int {
	cuts := []int{1, m.Rows / 3, m.Rows / 2, m.Rows - 1}
	for _, run := range m.runs {
		cuts = append(cuts, run.r0, run.r0+1, (run.r0+run.r1)/2, run.r1-1, run.r1)
	}
	return cuts
}

// checkSpMV compares every way mulVecSpan can be asked for m*x with the
// reference: whole, split in two at every run cut and the strict interior
// of every run alone; then the same product with one and two reductions
// riding along (checkSpMVDots).
func checkSpMV(t *testing.T, name string, m *CSR, x Vector) {
	t.Helper()
	want := refMulVec(m, x)
	got := NewVector(m.Rows)
	poison := func() {
		for i := range got {
			got[i] = math.NaN()
		}
	}
	poison()
	m.MulVec(got, x, nil)
	checkSame(t, name+" MulVec", got, want)
	for _, c := range runCuts(m) {
		poison()
		m.mulVecSpan(&spmv{y: got, x: x}, c, m.Rows)
		m.mulVecSpan(&spmv{y: got, x: x}, 0, c)
		checkSame(t, fmt.Sprintf("%s split at %d", name, c), got, want)
	}
	for _, run := range m.runs {
		poison()
		m.mulVecSpan(&spmv{y: got, x: x}, run.r0+1, run.r1-1)
		checkSame(t, fmt.Sprintf("%s run interior at %d", name, run.r0), got[run.r0+1:run.r1-1], want[run.r0+1:run.r1-1])
		if !math.IsNaN(got[run.r0]) || !math.IsNaN(got[run.r1-1]) {
			t.Fatalf("%s: range [%d,%d) wrote outside itself", name, run.r0+1, run.r1-1)
		}
	}
	checkSpMVDots(t, name, m, x, want)
}

// dotOperand names what a fused product reduces its output y against: nothing
// (0), the vector u (1), or y itself (2).
func dotOperand(sel int, u, y Vector) Vector {
	return [...]Vector{nil, u, y}[sel]
}

// checkSpMVDots runs m*x with reductions bound — one against a vector, the
// output against itself in either slot beside it — through mulVecDot, and
// chunk by chunk through mulVecSpan, last chunk first: run kernels clipped
// on both sides of every chunk boundary, accumulators restarted at it.
// Output, each chunk's partials and the returned dots must be the reference
// product's, the reference chunked dots' of it and their in-order fold, bit
// for bit. u is nonzero and negative wherever x is -0, so the -0 pass feeds
// the accumulators nothing but -0 products.
func checkSpMVDots(t *testing.T, name string, m *CSR, x, want Vector) {
	t.Helper()
	u := NewVector(m.Rows)
	for i := range u {
		u[i] = -1 - math.Abs(x[i%len(x)])
	}
	for _, c := range []struct {
		name   string
		s0, s1 int // 0: not bound, 1: against u, 2: against the output
	}{{"<y,u>", 1, 0}, {"<y,y>", 2, 0}, {"<y,u>,<y,y>", 1, 2}, {"<y,y>,<y,u>", 2, 1}} {
		got := NewVector(m.Rows)
		pick := func(y Vector, sel int) Vector { return dotOperand(sel, u, y) }
		poison := func() {
			for i := range got {
				got[i] = math.NaN()
			}
		}
		want0, want1 := refDotPartials(want, pick(want, c.s0)), []float64(nil)
		if c.s1 != 0 {
			want1 = refDotPartials(want, pick(want, c.s1))
		}
		poison()
		d0, d1 := m.mulVecDot(got, x, pick(got, c.s0), pick(got, c.s1), nil)
		label := fmt.Sprintf("%s %s", name, c.name)
		checkSame(t, label, got, want)
		checkSame(t, label+" dots", Vector{d0, d1}, Vector{refFold(want0), refFold(want1)})

		poison()
		a := spmv{y: got, x: x, u0: pick(got, c.s0), u1: pick(got, c.s1)}
		if a.u1 == nil {
			a.u1 = got
		}
		part0, part1 := make(Vector, len(want0)), make(Vector, len(want0))
		for ch := len(want0) - 1; ch >= 0; ch-- {
			r0 := ch * redChunk
			part0[ch], part1[ch] = m.mulVecSpan(&a, r0, min(r0+redChunk, m.Rows))
		}
		label += " chunk by chunk"
		checkSame(t, label, got, want)
		checkSame(t, label+" partials 0", part0, want0)
		if c.s1 != 0 {
			checkSame(t, label+" partials 1", part1, want1)
		}
	}
}

// TestBitIdentitySpMVRuns pins the diagonal-run SpMV to the reference
// triple loop, Float64bits for Float64bits, on every pattern class the
// analysis distinguishes. The grid operators are nudged off the stencil
// path (offStencil), so they exercise the run kernels and the row loop,
// not mulStencil.
func TestBitIdentitySpMVRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cases := []struct {
		name    string
		m       *CSR
		hasRuns bool
	}{
		{"3x511", offStencil(advDiff2D(3, 511, 0.5)), false}, // every row 3, 4 or 5 wide through the row loop
		{"1x300", advDiff2D(1, 300, 0.5), true},              // 2- and 3-wide rows: a tridiagonal run
		{"2x700", offStencil(advDiff2D(2, 700, 0.5)), false}, // 3- and 4-wide rows, no two alike in a row
		{"511x3", offStencil(advDiff2D(511, 3, 0.5)), true},
		{"7x255", offStencil(advDiff2D(7, 255, 0.5)), true},
		{"63x31", offStencil(advDiff2D(63, 31, 0.5)), true},
		{"127x127", offStencil(advDiff2D(127, 127, 0.5)), true},
		{"tridiagonal", laplace1D(40), true},
		{"random", randomPattern(rng, 300), false},
		{"7-wide band", banded(rng, 64, 3), false},
		{"wide row inside a run", withWideRow(rng, advDiff2D(15, 9, 0.5), 67), true},
	}
	for _, c := range cases {
		if got := len(c.m.runs) > 0; got != c.hasRuns || c.m.st.mx != 0 {
			t.Fatalf("%s: has runs = %v, want %v; stencil %+v, want none", c.name, got, c.hasRuns, c.m.st)
		}
		checkSpMV(t, c.name, c.m, randVec(rng, c.m.Cols))
		// All products -0: the sum is +0 only if each row still starts from
		// a +0 accumulator.
		negZero := NewVector(c.m.Cols)
		negZero.Fill(math.Copysign(0, -1))
		absVal := make([]float64, len(c.m.val))
		for i, v := range c.m.val {
			absVal[i] = math.Abs(v)
		}
		abs, err := NewCSR(c.m.Rows, c.m.Cols, c.m.rowPtr, c.m.colIdx, absVal)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if abs.st.mx != 0 {
			t.Fatalf("%s -0: taken for a stencil %+v", c.name, abs.st)
		}
		checkSpMV(t, c.name+" -0", abs, negZero)
	}
}

// TestBitIdentitySpMVShifted covers the second constructor: the merged
// pattern of a Jacobian with a structurally missing diagonal is analysed
// once, and Update's rewrites — every value at first and after Invalidate,
// the inserted diagonal alone on a shift change — keep the run table valid.
func TestBitIdentitySpMVShifted(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	op := NewShiftedOperator(hollowStencil(rng, 31, 9))
	if len(op.Matrix().runs) == 0 {
		t.Fatal("shifted operator has no runs")
	}
	x := randVec(rng, op.Matrix().Cols)
	for i, s := range []float64{0.01, 0.0025, 0.3, 0.3} {
		if i == 3 {
			op.Invalidate()
		}
		checkSpMV(t, "shifted", op.Update(s, nil), x)
	}
}

// TestRunTableCoversPattern checks the analysis itself: runs are sorted,
// disjoint, long enough, of an unrolled width, and every row inside one has
// exactly the run's offsets.
func TestRunTableCoversPattern(t *testing.T) {
	m := offStencil(advDiff2D(15, 9, 0.5))
	if len(m.runs) != 9 {
		t.Fatalf("15x9 stencil: %d runs, want one per grid line (9)", len(m.runs))
	}
	prev := 0
	for _, run := range m.runs {
		if run.r0 < prev || run.r1-run.r0 < minRunRows || run.w < minRunWidth || run.w > maxRunWidth {
			t.Fatalf("bad run %+v after row %d", run, prev)
		}
		prev = run.r1
		for r := run.r0; r < run.r1; r++ {
			cols := m.colIdx[m.rowPtr[r]:m.rowPtr[r+1]]
			if len(cols) != run.w {
				t.Fatalf("row %d width %d in run %+v", r, len(cols), run)
			}
			for j, c := range cols {
				if c-r != run.off[j] {
					t.Fatalf("row %d entry %d offset %d, run says %d", r, j, c-r, run.off[j])
				}
			}
		}
	}
}

// TestKernelsAllocFree asserts the steady-state kernels allocate nothing, on
// every shape and in every binding the kernel benchmarks time: the product
// alone and with one and two reductions riding along (mulVecDot), on the
// stencil path and off it, the line factor and solve, and the ILU solve and
// refactor.
func TestKernelsAllocFree(t *testing.T) {
	for _, sh := range kernelShapes {
		a, off := advDiff2D(sh[0], sh[1], 1), offStencil(advDiff2D(sh[0], sh[1], 1))
		f, err := NewILU0(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		x, y, z := NewVector(a.Rows), NewVector(a.Rows), NewVector(a.Rows)
		x.Fill(1)
		var lf lineFactor
		lf.factor(a, nil) // the pattern analysis, once per matrix
		kernels := map[string]func(){
			"MulVec":      func() { a.MulVec(y, x, nil) },
			"dirRange":    func() { dirRange(y, x, x, 0.5, 0.25, nil) },
			"sStep":       func() { sStepChunks(y, x, 0.5, x, nil) },
			"line factor": func() { lf.factor(a, nil) },
			"line solve":  func() { lf.solve(y, x, nil) },
			"xrStep":      func() { xrChunks(y, 0.5, x, 0.25, x, z, x, x, x, nil) },
			"Solve":       func() { f.Solve(y, x, nil) },
			"Refactor":    func() { _ = f.Refactor(a, nil) },
		}
		kernels["mulVecDot"] = func() { a.mulVecDot(y, x, x, nil, nil) }
		kernels["mulVecDot 2 dots"] = func() { a.mulVecDot(y, x, x, y, nil) }
		kernels["MulVec off the stencil"] = func() { off.MulVec(y, x, nil) }
		kernels["mulVecDot 2 dots off the stencil"] = func() { off.mulVecDot(y, x, x, y, nil) }
		for name, fn := range kernels {
			if n := testing.AllocsPerRun(20, fn); n != 0 {
				t.Errorf("%dx%d: %s allocates %v per call, want 0", sh[0], sh[1], name, n)
			}
		}
	}
}
