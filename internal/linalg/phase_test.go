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

// The GMRES and ILU digests were recorded at the last commit that still had
// the separate serial solver loops (the unfused, no-team iteration bodies
// this package used to carry beside the phase programs), from the no-team
// run of tridiagOperator(n) against randVec(seed 23) in phaseTestSizes
// order. They are the reference those loops used to be: the one interpreter
// must keep reproducing them on every range split. The BiCGStab digests are
// of fivePointOperator(n), recorded from the no-team run when the line
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
func testGolden(t *testing.T, op func(int) *CSR, solve goldenSolver, want []golden) {
	t.Helper()
	saved := ParMinPhase
	t.Cleanup(func() { ParMinPhase = saved })
	rng := rand.New(rand.NewSource(23))
	for gi, n := range phaseTestSizes() {
		a := op(n)
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

func TestGoldenBiCGStab(t *testing.T) {
	testGolden(t, fivePointOperator, bicgstabSolver, goldenBiCGStab)
}

func TestGoldenGMRES(t *testing.T) { testGolden(t, tridiagOperator, gmresSolver, goldenGMRES) }

func TestGoldenILU(t *testing.T) { testGolden(t, tridiagOperator, iluSolver, goldenILU) }

// refDotPartials is the reference chunked reduction the fused kernels must
// reproduce: one partial per redChunk elements, each a fresh +0 accumulator
// fed the products in index order; refFold adds them in chunk order.
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

func refFold(part []float64) float64 {
	s := 0.0
	for _, q := range part {
		s += q
	}
	return s
}

// fusedCase is one fused step under test: build binds it into a phase over
// the case's own vectors and returns the vectors it writes; ref runs the
// unfused sequence the step replaced as plain loops — the elementwise ops in
// their old order, each reduction a separate refDotPartials pass afterwards —
// and returns the same vectors plus the partials of slots 0 and 1 (nil: slot
// not filled). The partials are compared one by one: Fold starts from +0 and
// would hide a partial that came out -0.
type fusedCase struct {
	name  string
	build func(p *Phase) []Vector
	ref   func() (out []Vector, part [2][]float64)
	part  func(p *Phase) [2][]float64
	flops int64
}

// fusedCases builds every fused step with its reference over vectors of
// length n. With zero set, the vectors a reduction multiplies are all +0 on
// one side and all -1 on the other, so every product is -0 and a partial is
// +0 only if its accumulator really started from +0.
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
	slot0 := func(p *Phase) [2][]float64 { return [2][]float64{p.part[0][:p.nch]} }
	both := func(p *Phase) [2][]float64 { return [2][]float64{p.part[0][:p.nch], p.part[1][:p.nch]} }
	none := func(*Phase) [2][]float64 { return [2][]float64{} }
	var cases []fusedCase

	// Direction step, against UpdateP.
	{
		pv, r, v := state(), state(), state()
		cases = append(cases, fusedCase{name: "dirStep", flops: 4 * nn, part: none,
			build: func(p *Phase) []Vector {
				pv := pv.Clone()
				p.dirStep(pv, r, v, &beta, &omega)
				return []Vector{pv}
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
	}{{"sStep", 0}, {"sStep/s=r", 1}, {"sStep/s=v", 2}} {
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
		cases = append(cases, fusedCase{name: c.name, flops: 4 * nn, part: slot0,
			build: func(p *Phase) []Vector {
				s, r, v := bind()
				p.sStep(s, r, &negAlpha, v)
				return []Vector{s}
			},
			ref: func() ([]Vector, [2][]float64) {
				s, r, v := bind()
				for i := range s {
					s[i] = r[i] + negAlpha*v[i]
				}
				return []Vector{s}, [2][]float64{refDotPartials(s, s)}
			}})
	}

	// x/r step, against AXPY2, AXPYTo and two Dots.
	{
		x, ph, sh, r, s, t, rt := state(), state(), state(), NewVector(n), state(), state(), weight()
		cases = append(cases, fusedCase{name: "xrStep", flops: 10 * nn, part: both,
			build: func(p *Phase) []Vector {
				x, r := x.Clone(), r.Clone()
				p.xrStep(x, &alpha, ph, &omega, sh, r, s, t, rt)
				return []Vector{x, r}
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
		fc := fusedCase{name: c.name, flops: 2*int64(a.NNZ()) + 2*nn, part: slot0,
			build: func(p *Phase) []Vector {
				y := NewVector(n)
				p.mulVecDot(a, y, x, pick(y, c.s0), pick(y, c.s1))
				return []Vector{y}
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
			fc.part = both
		}
		cases = append(cases, fc)
	}

	// Gram-Schmidt sweep, against a Dot and an AXPY per basis vector and the
	// final Dot of w against itself: the last fused sweep reduces the vector
	// it updates.
	for _, k := range []int{0, 1, 4} {
		k := k
		w0 := state()
		basis := make([]Vector, k+1)
		for i := range basis {
			basis[i] = weight()
		}
		newHess := func() [][]float64 {
			h := make([][]float64, k+1)
			for i := range h {
				h[i] = make([]float64, k+1)
			}
			return h
		}
		column := func(h [][]float64) Vector {
			col := NewVector(k + 1)
			for i := range col {
				col[i] = h[i][k]
			}
			return col
		}
		var hess [][]float64
		cases = append(cases, fusedCase{name: fmt.Sprintf("MGS/k=%d", k),
			build: func(p *Phase) []Vector {
				w := w0.Clone()
				hess = newHess()
				kk := k
				p.MGS(w, basis, hess, &kk)
				return []Vector{w}
			},
			part: func(p *Phase) [2][]float64 { // the final norm's slot, then the Hessenberg column
				return [2][]float64{p.part[(k+1)&1][:p.nch], column(hess)}
			},
			ref: func() ([]Vector, [2][]float64) {
				w := w0.Clone()
				col := make([]float64, k+1)
				for i := 0; i <= k; i++ {
					h := refFold(refDotPartials(w, basis[i]))
					col[i] = h
					for j := range w {
						w[j] += -h * basis[i][j]
					}
				}
				return []Vector{w}, [2][]float64{refDotPartials(w, w), col}
			}})
	}
	return cases
}

// TestBitIdentityFusedSteps pins every fused step — the direction, s and x/r
// steps of BiCGStab, the SpMV that reduces as it writes, the Gram-Schmidt
// sweep — to the unfused step sequence it replaced, Float64bits for
// Float64bits, vectors, folds and flop charge alike: at every chunk-boundary
// length, on nil teams and teams of 1-4 on both sides of the cut-over, on
// random data and on the -0 probe, with the aliased operands the solvers
// bind (w reduced against itself, s written over r or v).
func TestBitIdentityFusedSteps(t *testing.T) {
	saved := ParMinPhase
	t.Cleanup(func() { ParMinPhase = saved })
	rng := rand.New(rand.NewSource(19))
	for _, n := range append([]int{1, 2*redChunk + 1}, phaseTestSizes()...) {
		for _, zero := range []bool{false, true} {
			for _, c := range fusedCases(rng, n, zero) {
				want, wantPart := c.ref()
				run := func(label string, tm *Team) {
					var p Phase
					p.Reset(n)
					got := c.build(&p)
					tm.RunPhase(&p)
					for i := range want {
						checkSame(t, tm.Size(), fmt.Sprintf("%s output %d", label, i), got[i], want[i])
					}
					for s, got := range c.part(&p) {
						checkSame(t, tm.Size(), fmt.Sprintf("%s partials %d", label, s), got, wantPart[s])
					}
					if p.Flops() != c.flops {
						t.Errorf("%s: charges %d flops, want %d", label, p.Flops(), c.flops)
					}
				}
				for _, cut := range []int{1, 1 << 30} {
					ParMinPhase = cut
					label := fmt.Sprintf("%s n=%d zero=%v cut=%d", c.name, n, zero, cut)
					run(label+" nil team", nil)
					for _, size := range teamSizes {
						tm := NewTeam(size)
						run(fmt.Sprintf("%s team=%d", label, size), tm)
						tm.Close()
					}
				}
			}
		}
	}
}

// TestPlansReboundNotRebuilt drives one workspace through the sequences that
// must and must not reuse a solver family's plans — the same system with
// other x and b, x and b swapped, n1 -> n2 -> n1, two matrices of one n, the
// other family growing the shared diagonal in between — and demands of every
// solve the bits of a fresh workspace, and of the warm sequence no
// allocation.
func TestPlansReboundNotRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n1, n2, n3 = 700, 2100, 3000
	a1, a1b, a2, a3 := fivePointOperator(n1), advDiff2D(70, 10, 1), fivePointOperator(n2), fivePointOperator(n3)
	u, v, big, bigger := randVec(rng, n1), randVec(rng, n1), randVec(rng, n2), randVec(rng, n3)
	xu, xv, xbig, xbigger := NewVector(n1), NewVector(n1), NewVector(n2), NewVector(n3)
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
	// pointer, so a plan still holding the previous diagonal would show.
	rescale := func() {
		for i := range a1.Val {
			a1.Val[i] *= 2
		}
	}
	seq := []solve{
		{"gmres a1", gmresSolver, a1, xv, u, nil},
		{"bicgstab n2 grows the diagonal", bicgstabSolver, a2, xbig, big, nil},
		{"gmres a1 rescaled after bicgstab", gmresSolver, a1, xv, u, rescale},
		{"bicgstab a1", bicgstabSolver, a1, xu, u, nil},
		{"bicgstab a1, other x and b", bicgstabSolver, a1, xv, v, nil},
		{"bicgstab a1, x and b swapped", bicgstabSolver, a1, u, xu, nil},
		{"gmres n3 grows the diagonal", gmresSolver, a3, xbigger, bigger, nil},
		{"bicgstab a1 rescaled after gmres", bicgstabSolver, a1, xu, v, rescale},
		{"bicgstab n2", bicgstabSolver, a2, xbig, big, nil},
		{"bicgstab back to n1", bicgstabSolver, a1, xv, u, nil},
		{"bicgstab second matrix of n1", bicgstabSolver, a1b, xu, v, nil},
		{"ilu a1b", iluRefactor, a1b, xv, u, nil},
		{"ilu a1b, other x and b", iluRefactor, a1b, xu, v, nil},
		{"bicgstab a1b between ilu solves", bicgstabSolver, a1b, xv, u, nil},
		{"ilu a1b again", iluRefactor, a1b, xu, v, nil},
		{"gmres a1, other x and b", gmresSolver, a1, xu, v, nil},
		{"gmres second matrix of n1", gmresSolver, a1b, xu, v, nil},
		{"gmres back to n2", gmresSolver, a2, xbig, big, nil},
	}
	ws := NewWorkspace()
	saved := NewVector(n3)
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
			checkSame(t, 1, s.name, got, fx)
			if st != fst || flops != fflops {
				t.Errorf("%s: stats %+v / %d flops, fresh workspace %+v / %d", s.name, st, flops, fst, fflops)
			}
		}
	}
	pass(true)
	pass(true) // every plan and buffer now exists; same answers again
	if allocs := testing.AllocsPerRun(3, func() { pass(false) }); allocs != 0 {
		t.Errorf("warm sequence allocates %v per pass, want 0", allocs)
	}
	// Rebound, not rebuilt: after a solve its family's key answers for the
	// same shape and for no other.
	x, b := NewVector(n1), randVec(rng, n1)
	if _, err := ws.BiCGStab(a1, x, b, 1e-10, 300, nil); err != nil {
		t.Fatal(err)
	}
	if !ws.bicg.current(a1, n1, 0, x, b) {
		t.Error("a second BiCGStab solve of the same system would rebuild its plans")
	}
	if ws.bicg.current(a1b, n1, 0, x, b) {
		t.Error("plans built for one matrix answer for another of the same dimension")
	}
}

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
// fused iteration steps and the one-step plans bound on the spot — stay off
// the heap once the workspace is warm, with a team and without: a plan is
// rebuilt into its own step and partial arrays when the solver variant
// changes, rebound in place when only x and b do (each solver runs twice,
// on two pairs), and a phase dispatch passes everything through the Team
// fields.
func TestFusedPhaseAllocFree(t *testing.T) {
	lowerParMin(t)
	rng := rand.New(rand.NewSource(31))
	const n = 8192
	a := tridiagOperator(n)
	bs := [2]Vector{randVec(rng, n), randVec(rng, n)}
	xs := [2]Vector{NewVector(n), NewVector(n)}
	tm := NewTeam(4)
	defer tm.Close()
	for _, team := range []*Team{tm, nil} {
		ws := NewWorkspace()
		ws.SetTeam(team)
		solve := func() {
			for i := 0; i < 6; i++ {
				x, b := xs[i&1], bs[i&1]
				x.Fill(0)
				var err error
				switch i / 2 {
				case 0:
					_, err = ws.BiCGStab(a, x, b, 1e-10, 300, nil)
				case 1:
					_, err = ws.GMRES(a, x, b, 1e-10, 30, 300, nil)
				default:
					_, err = ws.BiCGStabILU(a, x, b, 1e-10, 300, 0.125, nil)
				}
				if err != nil {
					t.Fatal(err)
				}
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
// multiply-add, dot) as one dispatch: a single wake/park round-trip on a team,
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
			p.MulElemAdd(dst, d, y)
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
