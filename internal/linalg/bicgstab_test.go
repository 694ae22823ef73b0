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

// fivePointOperator builds a diagonally dominant nonsymmetric five-point
// operator of arbitrary dimension n: unknowns numbered row by row in grid
// lines of 32, the last line ragged where 32 does not divide n. The x
// couplings (±1, within a line) outweigh the y couplings (±32), so the line
// factor solves along x — in the interleaved order where n is a multiple of
// 32, in row order elsewhere — and leaves BiCGStab the y couplings to
// iterate on.
func fivePointOperator(n int) *CSR {
	const nx = 32
	b := NewBuilder(n, n)
	for r := 0; r < n; r++ {
		if r >= nx {
			b.Add(r, r-nx, -0.9)
		}
		if r%nx > 0 {
			b.Add(r, r-1, -1.3)
		}
		b.Add(r, r, 4)
		if r%nx < nx-1 && r+1 < n {
			b.Add(r, r+1, -0.7)
		}
		if r+nx < n {
			b.Add(r, r+nx, -0.6)
		}
	}
	return b.Build()
}

// goldenSizes are the system dimensions the golden-digest tests sweep:
// one below, at and above a chunk boundary, a length several chunks in with
// a ragged tail, and the kernel-suite staple 5000.
func goldenSizes() []int {
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

// The ILU digests were recorded at the last commit that still had
// the separate serial solver loops (the unfused iteration bodies this
// package used to carry beside its fused steps), from the serial run of
// tridiagOperator(n) against randVec(seed 23) in goldenSizes order. They
// are the reference those loops used to be: the fused kernels must keep
// reproducing them. The BiCGStab digests are of fivePointOperator(n),
// recorded from the serial run when the line
// factor replaced the Jacobi diagonal: on the tridiagonal the line factor
// is exact, BiCGStab converges in one iteration, and a golden that never
// iterates pins no iteration body. They pin the preconditioner with it.
var (
	goldenBiCGStab = []golden{
		{1023, 18, 0x3dda50e0c4860a30, 1000229, "5ab8f6a79f976ecf59972a2812a7df8abcdefcb9590de38c9ee8158915597d23"},
		{1024, 19, 0x3dbcdcc3e9609133, 1056000, "bba025851d042b97befc5fc961d782fcdc2561ed36372eccde862fd186e2ff58"},
		{1025, 18, 0x3dd6a20c5da8f901, 1002055, "f88296b5e9325bd38dd665a2c80e4ca931c28da0777165e5888e172feb78dfbb"},
		{3089, 20, 0x3dd3d95237139b5c, 3284590, "363edaa9093f49362e52b4b7e0aecdf452efcb9cc28ee6fab88c0273fc75cf86"},
		{5000, 19, 0x3dd8768b24051295, 5051272, "db3d4ef3057092c63fb957e0acbe9417517bcdf5259813e3209260a37729a527"},
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
// chunk-boundary size it solves once and demands the recorded fingerprint —
// bitwise solution, iteration count, residual bits and exact flop charge.
func testGolden(t *testing.T, op func(int) *CSR, solve goldenSolver, want []golden) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	for gi, n := range goldenSizes() {
		a := op(n)
		b := randVec(rng, n)
		g := want[gi]
		if g.n != n {
			t.Fatalf("golden row %d is for n=%d, sweep has n=%d", gi, g.n, n)
		}
		x := NewVector(n)
		stats, err, flops := solve(NewWorkspace(), a, x, b)
		if err != nil {
			t.Fatalf("n=%d: solve failed: %v", n, err)
		}
		if got := vectorSHA(x); got != g.sha {
			t.Errorf("n=%d: solution digest %s, golden %s", n, got, g.sha)
		}
		if stats.Iterations != g.iters {
			t.Errorf("n=%d: %d iterations, golden %d", n, stats.Iterations, g.iters)
		}
		if got := math.Float64bits(stats.Residual); got != g.residual {
			t.Errorf("n=%d: residual bits %#x, golden %#x", n, got, g.residual)
		}
		if flops != g.flops {
			t.Errorf("n=%d: %d flops, golden %d", n, flops, g.flops)
		}
	}
}

func TestGoldenBiCGStab(t *testing.T) {
	testGolden(t, fivePointOperator, bicgstabSolver, goldenBiCGStab)
}

func TestGoldenILU(t *testing.T) { testGolden(t, tridiagOperator, iluSolver, goldenILU) }

// refDotPartials is the reference chunked reduction the fused kernels must
// reproduce: one partial per redChunk elements, each a fresh +0 accumulator
// fed the products in index order.
func refDotPartials(a, b Vector) []float64 {
	part := make([]float64, (len(a)+redChunk-1)/redChunk)
	for c := range part {
		p := 0.0
		for i := c * redChunk; i < min((c+1)*redChunk, len(a)); i++ {
			p += a[i] * b[i]
		}
		part[c] = p
	}
	return part
}

// refFold is the chunk-ordered fold of reference partials: the sum the
// reducing kernels return (nil: a reduction not bound, which returns 0).
func refFold(part []float64) float64 {
	s := 0.0
	for _, p := range part {
		s += p
	}
	return s
}

// fusedCase is one fused kernel under test: run calls it on copies of the
// case's own vectors and returns the vectors it writes and the dots it
// returns; ref runs the unfused sequence the kernel replaced as plain loops
// — the elementwise ops in their old order, each reduction a separate
// refDotPartials pass afterwards — and returns the same vectors plus the
// partials of each dot (nil: not returned).
type fusedCase struct {
	name  string
	run   func(ops *Ops) (out []Vector, dots [2]float64)
	ref   func() (out []Vector, part [2][]float64)
	flops int64
}

// fusedCases builds every fused kernel with its reference over vectors of
// length n. With zero set, the vectors a reduction multiplies are all +0 on
// one side and all -1 on the other, so every product is -0 and a dot is +0
// only if its accumulators really started from +0.
func fusedCases(rng *rand.Rand, n int, zero bool) []fusedCase {
	state := func() Vector { // vectors the steps read and write
		if zero {
			return NewVector(n)
		}
		return randVec(rng, n)
	}
	weight := func() Vector { // vectors only multiplied in
		if zero {
			v := NewVector(n)
			v.Fill(-1)
			return v
		}
		return randVec(rng, n)
	}
	alpha, beta, omega := 0.71, -1.25, 0.37
	if zero {
		alpha, beta, omega = 1, 1, 1
	}
	nn := int64(n)
	var cases []fusedCase

	// Direction step, against UpdateP.
	{
		pv, r, v := state(), state(), state()
		cases = append(cases, fusedCase{name: "dirRange", flops: 4 * nn,
			run: func(ops *Ops) ([]Vector, [2]float64) {
				pv := pv.Clone()
				dirRange(pv, r, v, beta, omega, ops)
				return []Vector{pv}, [2]float64{}
			},
			ref: func() ([]Vector, [2][]float64) {
				pv := pv.Clone()
				for i := range pv {
					pv[i] = r[i] + beta*(pv[i]-omega*v[i])
				}
				return []Vector{pv}, [2][]float64{}
			}})
	}

	// s step, against AXPYTo and Dot; dst apart, aliasing r, then v.
	for _, c := range []struct {
		name  string
		alias int // 0: s on its own, 1: s is r, 2: s is v
	}{{"sStepChunks", 0}, {"sStepChunks/s=r", 1}, {"sStepChunks/s=v", 2}} {
		c := c
		s0, r0, v0 := NewVector(n), state(), state()
		negAlpha := -alpha
		bind := func() (s, r, v Vector) {
			s, r, v = s0.Clone(), r0.Clone(), v0.Clone()
			switch c.alias {
			case 1:
				s = r
			case 2:
				s = v
			}
			return
		}
		cases = append(cases, fusedCase{name: c.name, flops: 4 * nn,
			run: func(ops *Ops) ([]Vector, [2]float64) {
				s, r, v := bind()
				ss := sStepChunks(s, r, negAlpha, v, ops)
				return []Vector{s}, [2]float64{ss}
			},
			ref: func() ([]Vector, [2][]float64) {
				s, r, v := bind()
				for i := range s {
					s[i] = r[i] + negAlpha*v[i]
				}
				return []Vector{s}, [2][]float64{refDotPartials(s, s)}
			}})
	}

	// x/r step, against AXPY2, AXPYTo and two Dots. It charges 8n: the
	// second dot is charged by the iteration that reads it.
	{
		x, ph, sh, r, s, t, rt := state(), state(), state(), NewVector(n), state(), state(), weight()
		cases = append(cases, fusedCase{name: "xrChunks", flops: 8 * nn,
			run: func(ops *Ops) ([]Vector, [2]float64) {
				x, r := x.Clone(), r.Clone()
				rr, rtr := xrChunks(x, alpha, ph, omega, sh, r, s, t, rt, ops)
				return []Vector{x, r}, [2]float64{rr, rtr}
			},
			ref: func() ([]Vector, [2][]float64) {
				x, r := x.Clone(), r.Clone()
				negOmega := -omega
				for i := range x {
					x[i] += alpha*ph[i] + omega*sh[i]
				}
				for i := range r {
					r[i] = s[i] + negOmega*t[i]
				}
				return []Vector{x, r}, [2][]float64{refDotPartials(r, r), refDotPartials(rt, r)}
			}})
	}

	// SpMV with one and two reductions, against MulVec and Dots; the output
	// reduced against itself in either slot.
	a := tridiagOperator(n)
	for _, c := range []struct {
		name   string
		s0, s1 int // 0: not bound, 1: against u, 2: against the output
	}{{"mulVecDot/<y,u>", 1, 0}, {"mulVecDot/<y,y>", 2, 0}, {"mulVecDot/<y,y>,<y,u>", 2, 1}, {"mulVecDot/<y,u>,<y,y>", 1, 2}} {
		c := c
		x, u := state(), weight()
		pick := func(y Vector, sel int) Vector { return dotOperand(sel, u, y) }
		fc := fusedCase{name: c.name, flops: 2*int64(a.NNZ()) + 2*nn,
			run: func(ops *Ops) ([]Vector, [2]float64) {
				y := NewVector(n)
				d0, d1 := a.mulVecDot(y, x, pick(y, c.s0), pick(y, c.s1), ops)
				return []Vector{y}, [2]float64{d0, d1}
			},
			ref: func() ([]Vector, [2][]float64) {
				y := refMulVec(a, x)
				part := [2][]float64{refDotPartials(y, pick(y, c.s0))}
				if c.s1 != 0 {
					part[1] = refDotPartials(y, pick(y, c.s1))
				}
				return []Vector{y}, part
			}}
		if c.s1 != 0 {
			fc.flops += 2 * nn
		}
		cases = append(cases, fc)
	}
	return cases
}

// TestBitIdentityFusedSteps pins every fused kernel — the direction, s and
// x/r steps of BiCGStab and the SpMV that reduces as it writes — to the
// unfused step sequence it replaced, Float64bits for Float64bits: vectors,
// each returned dot against the in-order fold of the reference partials,
// and the flop charge, at every chunk-boundary length, on random data and on
// the -0 probe, with the aliased operands the solver passes (y reduced
// against itself, s written over r or v).
func TestBitIdentityFusedSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range append([]int{1, 2*redChunk + 1}, goldenSizes()...) {
		for _, zero := range []bool{false, true} {
			for _, c := range fusedCases(rng, n, zero) {
				want, wantPart := c.ref()
				label := fmt.Sprintf("%s n=%d zero=%v", c.name, n, zero)
				var ops Ops
				got, dots := c.run(&ops)
				for i := range want {
					checkSame(t, fmt.Sprintf("%s output %d", label, i), got[i], want[i])
				}
				for s, d := range dots {
					checkSame(t, fmt.Sprintf("%s dot %d", label, s), Vector{d}, Vector{refFold(wantPart[s])})
				}
				if ops.Flops != c.flops {
					t.Errorf("%s: charges %d flops, want %d", label, ops.Flops, c.flops)
				}
			}
		}
	}
}

// TestWorkspaceReuse drives one workspace through the sequences a reused
// workspace meets — the same system with other x and b, x and b swapped,
// n1 -> n2 -> n1, a matrix rescaled in place, two matrices of one n, the
// two preconditioners in turn — and demands of every solve the bits of a
// fresh workspace, and of the warm sequence no allocation.
func TestWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n1, n2 = 700, 2100
	a1, a1b, a2 := fivePointOperator(n1), advDiff2D(70, 10, 1), fivePointOperator(n2)
	u, v, big := randVec(rng, n1), randVec(rng, n1), randVec(rng, n2)
	xu, xv, xbig := NewVector(n1), NewVector(n1), NewVector(n2)
	// A NaN key refactors in place on every solve, as a fresh workspace
	// factors: the flop charges compare, and one matrix keeps one factor.
	iluRefactor := func(ws *Workspace, a *CSR, x, b Vector) (SolveStats, error, int64) {
		var ops Ops
		st, err := ws.BiCGStabILU(a, x, b, 1e-10, 300, math.NaN(), &ops)
		return st, err, ops.Flops
	}
	type solve struct {
		name   string
		solver goldenSolver
		a      *CSR
		x, b   Vector
		pre    func()
	}
	// What a ShiftedOperator does between solves: new values behind the same
	// pointer, so anything still holding the previous diagonal would show.
	rescale := func() {
		a1.setVals(func(val []float64) {
			for i := range val {
				val[i] *= 2
			}
		})
	}
	seq := []solve{
		{"bicgstab n2 grows the vectors", bicgstabSolver, a2, xbig, big, nil},
		{"bicgstab a1", bicgstabSolver, a1, xu, u, nil},
		{"bicgstab a1, other x and b", bicgstabSolver, a1, xv, v, nil},
		{"bicgstab a1, x and b swapped", bicgstabSolver, a1, u, xu, nil},
		{"bicgstab a1 rescaled", bicgstabSolver, a1, xu, v, rescale},
		{"bicgstab n2", bicgstabSolver, a2, xbig, big, nil},
		{"bicgstab back to n1", bicgstabSolver, a1, xv, u, nil},
		{"bicgstab second matrix of n1", bicgstabSolver, a1b, xu, v, nil},
		{"ilu a1b", iluRefactor, a1b, xv, u, nil},
		{"ilu a1b, other x and b", iluRefactor, a1b, xu, v, nil},
		{"bicgstab a1b between ilu solves", bicgstabSolver, a1b, xv, u, nil},
		{"ilu a1b again", iluRefactor, a1b, xu, v, nil},
	}
	ws := NewWorkspace()
	saved := NewVector(n2)
	pass := func(check bool) {
		for _, s := range seq {
			b := saved[:len(s.b)] // a swapped pair solves into the other's right-hand side
			copy(b, s.b)
			if s.pre != nil {
				s.pre()
			}
			s.x.Fill(0)
			st, err, flops := s.solver(ws, s.a, s.x, s.b)
			if !check {
				copy(s.b, b)
				continue
			}
			got := s.x.Clone()
			copy(s.b, b)
			fx := NewVector(len(b))
			fst, ferr, fflops := s.solver(NewWorkspace(), s.a, fx, b)
			if err != nil || ferr != nil {
				t.Fatalf("%s: solve failed: %v / fresh %v", s.name, err, ferr)
			}
			checkSame(t, s.name, got, fx)
			if st != fst || flops != fflops {
				t.Errorf("%s: stats %+v / %d flops, fresh workspace %+v / %d", s.name, st, flops, fst, fflops)
			}
		}
	}
	pass(true)
	pass(true) // every buffer and factor now exists; same answers again
	if allocs := testing.AllocsPerRun(3, func() { pass(false) }); allocs != 0 {
		t.Errorf("warm sequence allocates %v per pass, want 0", allocs)
	}
}

// TestBiCGStabAllocFree asserts the solver bodies — the prologue and the
// fused iteration kernels — stay off the heap once the workspace is warm,
// each preconditioner run twice, on two pairs of x and b.
func TestBiCGStabAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 8192
	a := tridiagOperator(n)
	bs := [2]Vector{randVec(rng, n), randVec(rng, n)}
	xs := [2]Vector{NewVector(n), NewVector(n)}
	ws := NewWorkspace()
	solve := func() {
		for i := 0; i < 4; i++ {
			x, b := xs[i&1], bs[i&1]
			x.Fill(0)
			var err error
			if i < 2 {
				_, err = ws.BiCGStab(a, x, b, 1e-10, 300, nil)
			} else {
				_, err = ws.BiCGStabILU(a, x, b, 1e-10, 300, 0.125, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	solve() // warm: grows the vectors and factors once
	if allocs := testing.AllocsPerRun(5, solve); allocs != 0 {
		t.Fatalf("warm solves allocate %v per run, want 0", allocs)
	}
}
