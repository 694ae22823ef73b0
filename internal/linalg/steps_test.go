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

// TestPhaseStepsBitIdentical checks every plain Phase step kind against a
// plain loop written here, and the phase product against CSR.MulVec —
// element for element and bit for bit. Each step runs as its own one-step
// phase so a failure names the step.
func TestPhaseStepsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 5000 // spans several redChunk boundaries, not a multiple
	a := gridOperator(70)
	x := randVec(rng, n)
	y := randVec(rng, n)
	d := randVec(rng, n)
	gx := randVec(rng, a.Cols)
	al := 0.71
	at, rt := 1e-3, 1e-4

	// One row per step kind: build appends the step under test writing dst
	// (preloaded with d), want is the plain loop, flops the step's charge.
	steps := []struct {
		name  string
		build func(p *Phase, dst Vector)
		want  func(dst Vector, i int) float64
		flops int64
	}{
		{"Copy", func(p *Phase, dst Vector) { p.Copy(dst, x) }, func(dst Vector, i int) float64 { return x[i] }, 0},
		{"Sub", func(p *Phase, dst Vector) { p.Sub(dst, y, x) }, func(dst Vector, i int) float64 { return y[i] - x[i] }, n},
		{"SubAliased", func(p *Phase, dst Vector) { p.Sub(dst, y, dst) }, func(dst Vector, i int) float64 { return y[i] - dst[i] }, n},
		{"AXPY", func(p *Phase, dst Vector) { p.AXPY(dst, &al, x) }, func(dst Vector, i int) float64 { return dst[i] + al*x[i] }, 2 * n},
		{"AXPYTo", func(p *Phase, dst Vector) { p.AXPYTo(dst, y, &al, x) }, func(dst Vector, i int) float64 { return y[i] + al*x[i] }, 2 * n},
		{"ScaleTo", func(p *Phase, dst Vector) { p.ScaleTo(dst, &al, x) }, func(dst Vector, i int) float64 { return al * x[i] }, n},
	}
	// Reductions against the chunked reference loop of the serial Vector ops.
	wantDot := x.Dot(y, nil)
	wantWRMS := x.WRMSNorm(y, at, rt, nil)
	// SpMV against the standalone product.
	wantMul := NewVector(a.Rows)
	a.MulVec(wantMul, gx, nil)

	for _, st := range steps {
		dst := d.Clone()
		var p Phase
		p.Reset(n)
		st.build(&p, dst)
		p.Run()
		want := NewVector(n)
		for i := range want {
			want[i] = st.want(d, i)
		}
		checkSame(t, st.name, dst, want)
		if p.Flops() != st.flops {
			t.Errorf("%s charges %d flops, want %d", st.name, p.Flops(), st.flops)
		}
	}
	var p Phase
	p.Reset(n)
	p.Dot(0, x, y)
	p.WRMS(1, x, y, &at, &rt)
	p.Run()
	if got := p.Fold(0); got != wantDot {
		t.Errorf("Dot = %v, want %v", got, wantDot)
	}
	if got := math.Sqrt(p.Fold(1) / n); got != wantWRMS {
		t.Errorf("WRMS = %v, want %v", got, wantWRMS)
	}
	if p.Flops() != 7*n {
		t.Errorf("Dot+WRMS charge %d flops, want %d", p.Flops(), 7*n)
	}

	got := NewVector(a.Rows)
	var mv Phase
	mv.Reset(a.Rows)
	mv.MulVec(a, got, gx)
	mv.Run()
	checkSame(t, "phase MulVec", got, wantMul)
	if want := 2 * int64(a.NNZ()); mv.Flops() != want {
		t.Errorf("phase MulVec charges %d flops, want %d", mv.Flops(), want)
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
// up: a phase's Dot and WRMS fold exactly as refDotPartials and the serial
// Vector ops.
func TestReductionChunkBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sizes []int
	for _, base := range []int{redChunk, 2 * redChunk, 3 * redChunk} {
		sizes = append(sizes, base-1, base, base+1)
	}
	sizes = append(sizes, 1, 2, redChunk/2)
	for _, n := range sizes {
		a := randVec(rng, n)
		b := randVec(rng, n)
		at, rt := 1e-6, 1e-4
		var p Phase
		p.Reset(n)
		p.Dot(0, a, b)
		p.WRMS(1, a, b, &at, &rt)
		p.Run()
		checkSame(t, fmt.Sprintf("n=%d Dot partials", n), p.part[0][:p.nch], refDotPartials(a, b))
		if got, want := p.Fold(0), a.Dot(b, nil); got != want {
			t.Errorf("n=%d: Dot = %v, want %v", n, got, want)
		}
		if got, want := math.Sqrt(p.Fold(1)/float64(n)), a.WRMSNorm(b, at, rt, nil); got != want {
			t.Errorf("n=%d: WRMSNorm = %v, want %v", n, got, want)
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
