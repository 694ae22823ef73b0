package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// lowerParMin drops the parallel cut-over to 1 for the duration of a test,
// so team dispatch is exercised even on tiny vectors, and restores it on
// cleanup.
func lowerParMin(t testing.TB) {
	t.Helper()
	saved := ParMinPhase
	ParMinPhase = 1
	t.Cleanup(func() { ParMinPhase = saved })
}

// teamDot runs <a, b> as a one-step phase on tm.
func teamDot(tm *Team, a, b Vector) float64 {
	var p Phase
	p.Reset(len(a))
	p.Dot(0, a, b)
	tm.RunPhase(&p)
	return p.Fold(0)
}

// teamAXPY runs y += a*x as a one-step phase on tm.
func teamAXPY(tm *Team, y Vector, a float64, x Vector) {
	var p Phase
	p.Reset(len(y))
	p.AXPY(y, &a, x)
	tm.RunPhase(&p)
}

func randVec(rng *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// teamSizes are the team widths every kernel test sweeps, including a size
// that does not divide typical lengths evenly.
var teamSizes = []int{1, 2, 3, 4}

// TestTeamKernelsBitIdentical checks every Phase step kind, and the
// standalone team kernels, against a plain loop written here — element for
// element and bit for bit, across team sizes, on both sides of the cut-over
// and on nil and closed teams: the core determinism claim of the intra-grid
// parallel layer. Each step runs as its own one-step phase so a failure
// names the step.
func TestTeamKernelsBitIdentical(t *testing.T) {
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
	// SpMV against the row-by-row product.
	wantMul := NewVector(a.Rows)
	a.MulVec(wantMul, gx, nil)

	check := func(label string, tm *Team) {
		for _, st := range steps {
			dst := d.Clone()
			var p Phase
			p.Reset(n)
			st.build(&p, dst)
			tm.RunPhase(&p)
			want := NewVector(n)
			for i := range want {
				want[i] = st.want(d, i)
			}
			checkSame(t, tm.Size(), label+" "+st.name, dst, want)
			if p.Flops() != st.flops {
				t.Errorf("%s: %s charges %d flops, want %d", label, st.name, p.Flops(), st.flops)
			}
		}
		var p Phase
		p.Reset(n)
		p.Dot(0, x, y)
		p.WRMS(1, x, y, &at, &rt)
		tm.RunPhase(&p)
		if got := p.Fold(0); got != wantDot {
			t.Errorf("%s: Dot = %v, want %v", label, got, wantDot)
		}
		if got := math.Sqrt(p.Fold(1) / n); got != wantWRMS {
			t.Errorf("%s: WRMS = %v, want %v", label, got, wantWRMS)
		}
		if p.Flops() != 7*n {
			t.Errorf("%s: Dot+WRMS charge %d flops, want %d", label, p.Flops(), 7*n)
		}

		// Phase SpMV (chunk-aligned rows) and the standalone one (split by nnz).
		got := NewVector(a.Rows)
		var mv Phase
		mv.Reset(a.Rows)
		mv.MulVec(a, got, gx)
		tm.RunPhase(&mv)
		checkSame(t, tm.Size(), label+" phase MulVec", got, wantMul)
		got.Fill(0)
		var ops Ops
		tm.MulVec(a, got, gx, &ops)
		checkSame(t, tm.Size(), label+" MulVec", got, wantMul)
		if want := 2 * int64(a.NNZ()); ops.Flops != want || mv.Flops() != want {
			t.Errorf("%s: MulVec charges %d / phase %d flops, want %d", label, ops.Flops, mv.Flops(), want)
		}
	}

	saved := ParMinPhase
	t.Cleanup(func() { ParMinPhase = saved })
	for _, cut := range []int{1, 1 << 30} {
		ParMinPhase = cut
		for _, size := range teamSizes {
			tm := NewTeam(size)
			check(fmt.Sprintf("cut=%d team=%d", cut, size), tm)
			tm.Close()
			check(fmt.Sprintf("cut=%d closed team (was %d)", cut, size), tm)
		}
		check(fmt.Sprintf("cut=%d nil team", cut), nil)
	}
}

func checkSame(t *testing.T, size int, kernel string, got, want Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("size %d: %s length %d, want %d", size, kernel, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("size %d: %s[%d] = %v, want %v (bit difference)", size, kernel, i, got[i], want[i])
		}
	}
}

// TestTeamReductionChunkBoundaries pins the ordered reduction at the exact
// chunk-boundary lengths — one below, at, and above each multiple of
// redChunk — where a partial chunk or an off-by-one split would show up.
func TestTeamReductionChunkBoundaries(t *testing.T) {
	lowerParMin(t)
	rng := rand.New(rand.NewSource(11))
	var sizes []int
	for _, base := range []int{redChunk, 2 * redChunk, 3 * redChunk} {
		sizes = append(sizes, base-1, base, base+1)
	}
	sizes = append(sizes, 1, 2, redChunk/2)
	for _, size := range teamSizes {
		tm := NewTeam(size)
		defer tm.Close()
		for _, n := range sizes {
			a := randVec(rng, n)
			b := randVec(rng, n)
			at, rt := 1e-6, 1e-4
			var p Phase
			p.Reset(n)
			p.Dot(0, a, b)
			p.WRMS(1, a, b, &at, &rt)
			tm.RunPhase(&p)
			if got, want := p.Fold(0), a.Dot(b, nil); got != want {
				t.Errorf("team %d, n=%d: Dot = %v, want %v", size, n, got, want)
			}
			if got, want := math.Sqrt(p.Fold(1)/float64(n)), a.WRMSNorm(b, at, rt, nil); got != want {
				t.Errorf("team %d, n=%d: WRMSNorm = %v, want %v", size, n, got, want)
			}
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

// TestILUSolveWithMatchesSolve checks the level-scheduled parallel
// triangular solve against the serial natural-order solve, bit for bit.
func TestILUSolveWithMatchesSolve(t *testing.T) {
	lowerParMin(t)
	rng := rand.New(rand.NewSource(5))
	a := gridOperator(40) // 1600 rows, plenty of levels
	f, err := NewILU0(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(rng, a.Rows)
	want := NewVector(a.Rows)
	var serOps Ops
	f.Solve(want, b, &serOps)
	for _, size := range teamSizes {
		tm := NewTeam(size)
		got := NewVector(a.Rows)
		var parOps Ops
		f.SolveWith(tm, got, b, &parOps)
		tm.Close()
		checkSame(t, size, "ILU0.SolveWith", got, want)
		if parOps.Flops != serOps.Flops {
			t.Errorf("size %d: SolveWith flops %d != Solve flops %d", size, parOps.Flops, serOps.Flops)
		}
	}
}

// TestTeamRun covers the generic range-split entry point used by the
// prolongation.
func TestTeamRun(t *testing.T) {
	for _, size := range teamSizes {
		tm := NewTeam(size)
		out := make([]int, 1000)
		tm.Run(len(out), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = i * i
			}
		})
		tm.Close()
		for i, v := range out {
			if v != i*i {
				t.Fatalf("size %d: out[%d] = %d, want %d", size, i, v, i*i)
			}
		}
	}
}

// TestTeamSteadyStateAllocFree asserts that a warmed-up team dispatches its
// kernels without allocating: opcode dispatch, argument passing through
// fields, and the plan's pre-grown partial buffers must stay off the heap.
func TestTeamSteadyStateAllocFree(t *testing.T) {
	lowerParMin(t)
	rng := rand.New(rand.NewSource(13))
	const n = 4096
	a := gridOperator(64)
	x := randVec(rng, n)
	y := randVec(rng, n)
	gx := randVec(rng, a.Cols)
	gy := NewVector(a.Rows)
	tm := NewTeam(4)
	defer tm.Close()
	al, at := 0.5, 1e-3
	var p Phase // built once: grows the step and partial arrays
	p.Reset(n)
	p.Dot(0, x, y)
	p.WRMS(1, x, y, &at, &at)
	p.AXPY(y, &al, x)
	p.Copy(y, x)
	if allocs := testing.AllocsPerRun(50, func() {
		tm.RunPhase(&p)
		tm.MulVec(a, gy, gx, nil)
	}); allocs != 0 {
		t.Fatalf("steady-state team dispatch allocates %v per run, want 0", allocs)
	}
}

// countingObserver records imbalance observations.
type countingObserver struct {
	n    int
	last int64
}

func (o *countingObserver) Observe(us int64) { o.n++; o.last = us }

// TestTeamImbalanceObserver checks that an installed observer sees one
// measurement per parallel dispatch and none for inline (serial) kernels.
func TestTeamImbalanceObserver(t *testing.T) {
	lowerParMin(t)
	rng := rand.New(rand.NewSource(17))
	x := randVec(rng, 2048)
	y := randVec(rng, 2048)
	tm := NewTeam(2)
	defer tm.Close()
	obs := &countingObserver{}
	tm.SetObserver(obs)
	teamDot(tm, x, y)
	teamAXPY(tm, y, 0.5, x)
	if obs.n != 2 {
		t.Fatalf("observer saw %d dispatches, want 2", obs.n)
	}
	if obs.last < 0 {
		t.Fatalf("imbalance %d us < 0", obs.last)
	}
	// A single team runs inline and must not report.
	single := NewTeam(1)
	single.SetObserver(obs)
	teamDot(single, x, y)
	if obs.n != 2 {
		t.Fatalf("single-worker team reported a dispatch (saw %d, want 2)", obs.n)
	}
}

// TestTeamCloseFallsBackToSerial checks that kernels still work — serially —
// after Close, which matters for the deferred Close in panicking workers.
func TestTeamCloseFallsBackToSerial(t *testing.T) {
	lowerParMin(t)
	rng := rand.New(rand.NewSource(19))
	x := randVec(rng, 512)
	y := randVec(rng, 512)
	tm := NewTeam(4)
	tm.Close()
	tm.Close() // idempotent
	if got, want := teamDot(tm, x, y), x.Dot(y, nil); got != want {
		t.Fatalf("closed team Dot = %v, want %v", got, want)
	}
	if tm.Size() != 1 {
		t.Fatalf("closed team Size = %d, want 1", tm.Size())
	}
}

// TestNilTeam checks the nil-receiver contract: every entry point runs the
// kernel on the caller.
func TestNilTeam(t *testing.T) {
	var tm *Team
	x := Vector{1, 2, 3}
	y := Vector{4, 5, 6}
	if got, want := teamDot(tm, x, y), x.Dot(y, nil); got != want {
		t.Fatalf("nil team Dot = %v, want %v", got, want)
	}
	b := NewBuilder(2, 3)
	for c, v := range []float64{1, 2, 3} {
		b.Add(0, c, v)
	}
	b.Add(1, 1, 1)
	out := NewVector(2)
	tm.MulVec(b.Build(), out, x, nil)
	if out[0] != 14 || out[1] != 2 {
		t.Fatalf("nil team MulVec = %v, want [14 2]", out)
	}
	ran := false
	tm.Run(3, func(lo, hi int) { ran = lo == 0 && hi == 3 })
	if !ran {
		t.Fatal("nil team Run did not call fn(0, 3)")
	}
	if tm.Size() != 1 {
		t.Fatalf("nil team Size = %d, want 1", tm.Size())
	}
	tm.SetObserver(nil) // must not panic
	tm.Close()          // must not panic
}
