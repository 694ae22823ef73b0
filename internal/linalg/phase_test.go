package linalg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// tridiagOperator builds a diagonally dominant nonsymmetric tridiagonal
// operator of arbitrary dimension n, so the fused-solver tests can pin the
// exact redChunk boundary lengths the square grid operators cannot hit.
func tridiagOperator(n int) *CSR {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 4)
		if i > 0 {
			b.Add(i, i-1, -1.3)
		}
		if i < n-1 {
			b.Add(i, i+1, -0.7)
		}
	}
	return b.Build()
}

// phaseTestSizes are the system dimensions the golden-digest tests sweep:
// one below, at and above a chunk boundary, a length several chunks in with
// a ragged tail, and the kernel-suite staple 5000.
func phaseTestSizes() []int {
	return []int{redChunk - 1, redChunk, redChunk + 1, 3*redChunk + 17, 5000}
}

// goldenSolver runs one solver variant against (a, b) from a zero initial
// guess and returns the stats and flop count.
type goldenSolver func(ws *Workspace, a *CSR, x, b Vector) (SolveStats, error, int64)

func bicgstabSolver(ws *Workspace, a *CSR, x, b Vector) (SolveStats, error, int64) {
	var ops Ops
	st, err := ws.BiCGStab(a, x, b, 1e-10, 300, &ops)
	return st, err, ops.Flops
}

func gmresSolver(ws *Workspace, a *CSR, x, b Vector) (SolveStats, error, int64) {
	var ops Ops
	st, err := ws.GMRES(a, x, b, 1e-10, 30, 300, &ops)
	return st, err, ops.Flops
}

func iluSolver(ws *Workspace, a *CSR, x, b Vector) (SolveStats, error, int64) {
	var ops Ops
	st, err := ws.BiCGStabILU(a, x, b, 1e-10, 300, 0.125, &ops)
	return st, err, ops.Flops
}

// golden is one solve's full fingerprint: iteration count, the bits of the
// final residual, the flop charge, and the SHA-256 of the solution's bits.
type golden struct {
	n, iters int
	residual uint64
	flops    int64
	sha      string
}

// The digests below were recorded at the last commit that still had the
// separate serial solver loops (the unfused, no-team iteration bodies this
// package used to carry beside the phase programs), from the no-team run of
// tridiagOperator(n) against randVec(seed 23) in phaseTestSizes order. They
// are the reference those loops used to be: the one interpreter must keep
// reproducing them on every range split.
var (
	goldenBiCGStab = []golden{
		{1023, 13, 0x3da506cd615e5128, 496051, "293dd880d1020679da24ba1af236cf296d3b0721279810381a81c9146df4f9d6"},
		{1024, 12, 0x3dd818fe2224bc0b, 457632, "22beade6f40920c5040b0d07c07607f9e7d761cd149284f00e6bc7a242d45afe"},
		{1025, 12, 0x3dc2a8a69e237142, 475500, "ce33dd36ac2c1dd2413a83d742d267e48eeee4fa8907baad6ebf622282873693"},
		{3089, 13, 0x3dc9ea74b5f4a4f0, 1550570, "748cc898596acbafb1c747d3c200a65e6fdb35a738ac2dbde297e91d65628738"},
		{5000, 13, 0x3dc9d93bc111e640, 2424896, "c41836a3e6c759fe60c43cf36e51bed51796030c5e4fa6982a207d7c962b4edf"},
	}
	goldenGMRES = []golden{
		{1023, 22, 0x3dd21ecfd6d5f100, 1331652, "679974b8dd0a66faaee341115d379420ad1560a56c72bcaf05a86bd6ea13be7d"},
		{1024, 22, 0x3dd237387b3c235a, 1332952, "bc26c3c1f8cc758164c2e8de2fb89595a0a38552711e75c01173b41d4c5e7fcd"},
		{1025, 22, 0x3dd24c249d76dd43, 1334252, "f49bf81245105c408aafab5ea81fab86a32ed93eee46b1273d4ec174f1e9147c"},
		{3089, 22, 0x3dd275e827eb6732, 4017452, "09c92df984cb8113250d7848c3b2f6c9cb673610f80c781c0265e27d0651662f"},
		{5000, 22, 0x3dd28f2d3ecbee5b, 6501752, "542a4180c00c722bdc43531061af1174a6e8641cc66996427869cbc93bf486e8"},
	}
	goldenILU = []golden{
		{1023, 1, 0x3c9ffef42c8e7a83, 36813, "b86451da408ee65acd1308d2251640eb707f0f3b2e227c2a2e55b18d38abf79d"},
		{1024, 1, 0x3ca9c0e47d953457, 36849, "dc65b1a79f34141a820e39bcfe1ac45d7e91a499a3e6fd9d70f28a17edbfbd73"},
		{1025, 1, 0x3ca13c4366cd450b, 36885, "d511d6595c9963a1fc9be7eeda0d8c83a0bafbd4dc39052527e54392829211ad"},
		{3089, 1, 0x3ca1f384c7b84dff, 111189, "d8f304ac8b9c0a7d3d2d95d8edb91174721575b23e15da435411ddd438fee668"},
		{5000, 1, 0x3caf4d0efceb236b, 179985, "b0cdb0fe6d54bce5bf7e8cd5cb0eb63264768ed87636204ebd461b95fb5026fb"},
	}
)

func vectorSHA(v Vector) string {
	h := sha256.New()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// testGolden is the shared body of the golden-digest tests: for every
// chunk-boundary size it solves with no team, a closed team, and teams of
// 1-4 on both sides of the cut-over, and demands the recorded fingerprint —
// bitwise solution, iteration count, residual bits and exact flop charge —
// from every one of them: the full determinism contract of the phase layer.
func testGolden(t *testing.T, solve goldenSolver, want []golden) {
	t.Helper()
	saved := ParMinPhase
	t.Cleanup(func() { ParMinPhase = saved })
	rng := rand.New(rand.NewSource(23))
	for gi, n := range phaseTestSizes() {
		a := tridiagOperator(n)
		b := randVec(rng, n)
		g := want[gi]
		if g.n != n {
			t.Fatalf("golden row %d is for n=%d, sweep has n=%d", gi, g.n, n)
		}
		check := func(label string, tm *Team) {
			ws := NewWorkspace()
			ws.SetTeam(tm)
			x := NewVector(n)
			stats, err, flops := solve(ws, a, x, b)
			if err != nil {
				t.Fatalf("%s: solve failed: %v", label, err)
			}
			if got := vectorSHA(x); got != g.sha {
				t.Errorf("%s: solution digest %s, golden %s", label, got, g.sha)
			}
			if stats.Iterations != g.iters {
				t.Errorf("%s: %d iterations, golden %d", label, stats.Iterations, g.iters)
			}
			if got := math.Float64bits(stats.Residual); got != g.residual {
				t.Errorf("%s: residual bits %#x, golden %#x", label, got, g.residual)
			}
			if flops != g.flops {
				t.Errorf("%s: %d flops, golden %d", label, flops, g.flops)
			}
		}
		for _, cut := range []int{1, 1 << 30} {
			ParMinPhase = cut
			check(fmt.Sprintf("n=%d cut=%d nil team", n, cut), nil)
			for _, size := range teamSizes {
				tm := NewTeam(size)
				check(fmt.Sprintf("n=%d cut=%d team=%d", n, cut, size), tm)
				tm.Close()
				check(fmt.Sprintf("n=%d cut=%d closed team (was %d)", n, cut, size), tm)
			}
		}
	}
}

func TestGoldenBiCGStab(t *testing.T) { testGolden(t, bicgstabSolver, goldenBiCGStab) }

func TestGoldenGMRES(t *testing.T) { testGolden(t, gmresSolver, goldenGMRES) }

func TestGoldenILU(t *testing.T) { testGolden(t, iluSolver, goldenILU) }

// TestPhaseSerialFallback pins the whole-range interpretation RunPhase uses
// below the cut-over (and on nil teams): reductions must reproduce the
// chunk-ordered fold at exact chunk-boundary lengths.
func TestPhaseSerialFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var tm *Team // nil team: the caller interprets the whole range
	for _, n := range []int{1, redChunk - 1, redChunk, redChunk + 1, 2*redChunk + 5} {
		x := randVec(rng, n)
		y := randVec(rng, n)
		dst := NewVector(n)
		alpha := 0.75
		atol, rtol := 1e-6, 1e-4
		var p Phase
		p.Reset(n)
		p.AXPYTo(dst, y, &alpha, x)
		p.Dot(0, x, y)
		p.WRMS(1, x, y, &atol, &rtol)
		tm.RunPhase(&p)
		want := NewVector(n)
		for i := range want {
			want[i] = y[i] + alpha*x[i]
		}
		checkSame(t, 1, fmt.Sprintf("serial phase AXPYTo n=%d", n), dst, want)
		if got, wantDot := p.Fold(0), x.Dot(y, nil); got != wantDot {
			t.Errorf("n=%d: phase Dot fold = %v, want %v", n, got, wantDot)
		}
		wrms := math.Sqrt(p.Fold(1) / float64(n))
		if want := x.WRMSNorm(y, atol, rtol, nil); wrms != want {
			t.Errorf("n=%d: phase WRMS = %v, want %v", n, wrms, want)
		}
	}
}

// TestFusedPhaseAllocFree asserts the solver bodies — prologue phases, the
// iteration phases and the one-step plans bound on the spot — stay off the
// heap once the workspace is warm, with a team and without: plan rebuilding
// reuses the step and partial arrays, and a phase dispatch passes
// everything through the Team fields.
func TestFusedPhaseAllocFree(t *testing.T) {
	lowerParMin(t)
	rng := rand.New(rand.NewSource(31))
	const n = 8192
	a := tridiagOperator(n)
	b := randVec(rng, n)
	x := NewVector(n)
	tm := NewTeam(4)
	defer tm.Close()
	for _, team := range []*Team{tm, nil} {
		ws := NewWorkspace()
		ws.SetTeam(team)
		solve := func() {
			x.Fill(0)
			if _, err := ws.BiCGStab(a, x, b, 1e-10, 300, nil); err != nil {
				t.Fatal(err)
			}
			x.Fill(0)
			if _, err := ws.GMRES(a, x, b, 1e-10, 30, 300, nil); err != nil {
				t.Fatal(err)
			}
			x.Fill(0)
			if _, err := ws.BiCGStabILU(a, x, b, 1e-10, 300, 0.125, nil); err != nil {
				t.Fatal(err)
			}
		}
		solve() // warm: grows vectors, basis, plan arrays and partials once
		if allocs := testing.AllocsPerRun(5, solve); allocs != 0 {
			t.Fatalf("team of %d: warm solves allocate %v per run, want 0", team.Size(), allocs)
		}
	}
}

// TestCalibrateRespectsKnobs checks the calibration contract: a cut-over
// the caller already moved off its default is never overwritten, an
// untouched one gets the calibrated value the report names, and a host
// with fewer than two effective processors is honestly sequentialized.
func TestCalibrateRespectsKnobs(t *testing.T) {
	saved := ParMinPhase
	t.Cleanup(func() { ParMinPhase = saved })
	ParMinPhase = 7
	if cal := calibrate(); ParMinPhase != 7 || cal.ParMinPhase != 7 {
		t.Errorf("calibrate overwrote an explicitly set cut-over: ParMinPhase = %d, report %d, want 7", ParMinPhase, cal.ParMinPhase)
	}
	ParMinPhase = defParMinPhase
	cal := calibrate()
	if cal.ParMinPhase != ParMinPhase {
		t.Errorf("calibration report %d disagrees with the in-effect cut-over %d", cal.ParMinPhase, ParMinPhase)
	}
	if cal.EffectiveProcs < 2 {
		if !cal.Sequentialized || cal.ParMinPhase != knobCeiling {
			t.Errorf("1-proc host must sequentialize: Sequentialized=%v ParMinPhase=%d", cal.Sequentialized, cal.ParMinPhase)
		}
	} else {
		if cal.Sequentialized {
			t.Errorf("%d-proc host must not sequentialize", cal.EffectiveProcs)
		}
		if cal.ParMinPhase < redChunk || cal.ParMinPhase > 1<<20 {
			t.Errorf("calibrated ParMinPhase = %d outside [one chunk, 1<<20]", cal.ParMinPhase)
		}
	}
	if cal.ElemNs <= 0 {
		t.Errorf("ElemNs = %v, want > 0", cal.ElemNs)
	}
}

// BenchmarkTeamDispatch measures a four-op phase (copy, axpy, elementwise
// multiply, dot) as one dispatch: a single wake/park round-trip on a team,
// and the same interpreter over the whole range on the team of one. The
// cut-over is forced low so the team runs even when a calibrated process
// would sequentialize.
func BenchmarkTeamDispatch(b *testing.B) {
	lowerParMin(b)
	const n = 1 << 14
	rng := rand.New(rand.NewSource(37))
	x := randVec(rng, n)
	y := randVec(rng, n)
	d := randVec(rng, n)
	dst := NewVector(n)
	alpha := 0.5
	for _, size := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("fused/team=%d", size), func(b *testing.B) {
			tm := NewTeam(size)
			defer tm.Close()
			var p Phase
			p.Reset(n)
			p.Copy(dst, x)
			p.AXPY(dst, &alpha, y)
			p.MulElem(dst, d, dst)
			p.Dot(0, dst, y)
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0.0
			for i := 0; i < b.N; i++ {
				tm.RunPhase(&p)
				sink += p.Fold(0)
			}
			benchSink = sink
		})
	}
}

var benchSink float64
