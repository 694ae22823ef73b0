package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randVec(rng *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestVectorKernelsBitIdentical checks every elementwise Vector kernel and
// dotChunks against a plain loop written here, and CSR.MulVec against the
// reference triple loop — element for element and bit for bit, flop charge
// included.
func TestVectorKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 5000 // spans several redChunk boundaries, not a multiple
	a := gridOperator(70)
	x := randVec(rng, n)
	y := randVec(rng, n)
	d := randVec(rng, n)
	gx := randVec(rng, a.Cols)
	al := 0.71

	// One row per kernel: call writes dst (preloaded with d), want is the
	// plain loop, flops the kernel's charge.
	steps := []struct {
		name  string
		call  func(dst Vector, ops *Ops)
		want  func(dst Vector, i int) float64
		flops int64
	}{
		{"Sub", func(dst Vector, ops *Ops) { dst.Sub(y, x, ops) }, func(dst Vector, i int) float64 { return y[i] - x[i] }, n},
		{"SubAliased", func(dst Vector, ops *Ops) { dst.Sub(y, dst, ops) }, func(dst Vector, i int) float64 { return y[i] - dst[i] }, n},
		{"AXPY", func(dst Vector, ops *Ops) { dst.AXPY(al, x, ops) }, func(dst Vector, i int) float64 { return dst[i] + al*x[i] }, 2 * n},
		{"SetAXPY", func(dst Vector, ops *Ops) { dst.SetAXPY(y, al, x, ops) }, func(dst Vector, i int) float64 { return y[i] + al*x[i] }, 2 * n},
		{"SetAXPYAliased", func(dst Vector, ops *Ops) { dst.SetAXPY(dst, al, x, ops) }, func(dst Vector, i int) float64 { return dst[i] + al*x[i] }, 2 * n},
		{"SetScaled", func(dst Vector, ops *Ops) { dst.SetScaled(al, x, ops) }, func(dst Vector, i int) float64 { return al * x[i] }, n},
		{"SetScaledAliased", func(dst Vector, ops *Ops) { dst.SetScaled(al, dst, ops) }, func(dst Vector, i int) float64 { return al * dst[i] }, n},
	}
	for _, st := range steps {
		dst := d.Clone()
		var ops Ops
		st.call(dst, &ops)
		want := NewVector(n)
		for i := range want {
			want[i] = st.want(d, i)
		}
		checkSame(t, st.name, dst, want)
		if ops.Flops != st.flops {
			t.Errorf("%s charges %d flops, want %d", st.name, ops.Flops, st.flops)
		}
	}

	var ops Ops
	if got, want := dotChunks(x, y, &ops), x.Dot(y, nil); got != want {
		t.Errorf("dotChunks = %v, want %v", got, want)
	}
	if ops.Flops != 2*n {
		t.Errorf("dotChunks charges %d flops, want %d", ops.Flops, 2*n)
	}

	got := NewVector(a.Rows)
	ops = Ops{}
	a.MulVec(got, gx, &ops)
	checkSame(t, "MulVec", got, refMulVec(a, gx))
	if want := 2 * int64(a.NNZ()); ops.Flops != want {
		t.Errorf("MulVec charges %d flops, want %d", ops.Flops, want)
	}
}

func checkSame(t *testing.T, kernel string, got, want Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s length %d, want %d", kernel, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v (bit difference)", kernel, i, got[i], want[i])
		}
	}
}

// TestReductionChunkBoundaries pins the ordered reduction at the exact
// chunk-boundary lengths — one below, at, and above each multiple of
// redChunk — where a partial chunk or an off-by-one chunk index would show
// up: dotChunks returns the fold of refDotPartials and the serial Vector.Dot,
// and the elementwise kernel beside it (SetAXPY) covers a ragged tail.
func TestReductionChunkBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sizes []int
	for _, base := range []int{redChunk, 2 * redChunk, 3 * redChunk} {
		sizes = append(sizes, base-1, base, base+1)
	}
	sizes = append(sizes, 1, 2, redChunk/2, 2*redChunk+5)
	for _, n := range sizes {
		a := randVec(rng, n)
		b := randVec(rng, n)
		got := dotChunks(a, b, nil)
		checkSame(t, fmt.Sprintf("n=%d dotChunks", n), Vector{got}, Vector{refFold(refDotPartials(a, b))})
		if want := a.Dot(b, nil); got != want {
			t.Errorf("n=%d: dotChunks = %v, Dot %v", n, got, want)
		}
		alpha := 0.75
		dst := NewVector(n)
		dst.SetAXPY(b, alpha, a, nil)
		want := NewVector(n)
		for i := range want {
			want[i] = b[i] + alpha*a[i]
		}
		checkSame(t, fmt.Sprintf("n=%d SetAXPY", n), dst, want)
	}
}

// TestPhaseSerialFallback runs the mixed sequence a BiCGStab step makes on
// its caller — an elementwise step (SetAXPY) followed by the reductions over
// its inputs (dotChunks, WRMSNorm) — at lengths from one element to a ragged
// third chunk, and checks each against a plain loop with the same
// chunk-ordered fold: the serial kernels agree with one another and with
// the reference bit for bit, whether the vector fills one chunk or several.
func TestPhaseSerialFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, redChunk - 1, redChunk, redChunk + 1, 2*redChunk + 5} {
		x := randVec(rng, n)
		y := randVec(rng, n)
		dst := NewVector(n)
		alpha := 0.75
		atol, rtol := 1e-6, 1e-4
		dst.SetAXPY(y, alpha, x, nil)
		want := NewVector(n)
		for i := range want {
			want[i] = y[i] + alpha*x[i]
		}
		checkSame(t, fmt.Sprintf("serial SetAXPY n=%d", n), dst, want)
		wantDot := refFold(refDotPartials(x, y))
		if got := dotChunks(x, y, nil); math.Float64bits(got) != math.Float64bits(wantDot) {
			t.Errorf("n=%d: dotChunks = %v, want %v", n, got, wantDot)
		}
		if got := x.Dot(y, nil); math.Float64bits(got) != math.Float64bits(wantDot) {
			t.Errorf("n=%d: Dot = %v, want %v", n, got, wantDot)
		}
		e := NewVector(n)
		for i := range e {
			e[i] = x[i] / (atol + rtol*math.Abs(y[i]))
		}
		wantWRMS := math.Sqrt(refFold(refDotPartials(e, e)) / float64(n))
		if got := x.WRMSNorm(y, atol, rtol, nil); math.Float64bits(got) != math.Float64bits(wantWRMS) {
			t.Errorf("n=%d: WRMSNorm = %v, want %v", n, got, wantWRMS)
		}
	}
}

// TestSerialReductionUnchangedBelowOneChunk guards the compatibility claim
// of the chunked serial Dot: for vectors at most one chunk long the fold
// degenerates to the classic single running sum.
func TestSerialReductionUnchangedBelowOneChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 7, redChunk - 1, redChunk} {
		a := randVec(rng, n)
		b := randVec(rng, n)
		want := 0.0
		for i := range a {
			want += a[i] * b[i]
		}
		if got := a.Dot(b, nil); got != want {
			t.Errorf("n=%d: Dot = %v, want running sum %v", n, got, want)
		}
	}
}
