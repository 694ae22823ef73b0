package solver

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/linalg"
	"repro/internal/rosenbrock"
)

// lowerParMin drops the linalg parallel cut-over to 1, so the team kernels
// wake their workers even on the small grids these tests can afford, and
// restores it on cleanup.
func lowerParMin(t *testing.T) {
	t.Helper()
	saved := linalg.ParMinPhase
	linalg.ParMinPhase = 1
	t.Cleanup(func() { linalg.ParMinPhase = saved })
}

// hashOutput digests every float of a run bit-exactly: the combined field
// plus each per-grid solution in family order. Two runs are bit-for-bit
// identical iff their hashes match.
func hashOutput(t *testing.T, out *Output) [32]byte {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(v linalg.Vector) {
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	put(out.Combined.V)
	for _, r := range out.Results {
		put(r.U)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// coresUnderTest are the CoresPerWorker settings every determinism test
// sweeps. GOMAXPROCS is appended at runtime.
func coresUnderTest() []int {
	cores := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 4 {
		cores = append(cores, g)
	}
	return cores
}

// goldenFamily pins the root-2 level-2 tol-1e-3 family per linear solver:
// the hashOutput digest and Output.TotalFlops of Sequential(cores=1), the
// source of every row. Comparing runs only against each other would prove
// self-consistency of the one phase interpreter, not that it still computes
// what it did. The rows pin the kernels and rosenbrock's default inner
// tolerance, LinTol = 1e-2*Tol, together; linalg's golden digests pass an
// explicit tolerance and pin the kernels alone. A row that moves while
// those hold is the rule moving, and only a change of the rule regenerates
// it. All three pin the scaled stage system (1/(gamma*tau))*I - J with its
// scaled right-hand sides (DESIGN.md §16), and the stage solves' starting
// values: the extrapolation of the last predOrder = 4 accepted steps' stage
// vectors (DESIGN.md §17). The two BiCGStab rows pin a second rule as well:
// their preconditioner, ILU(0) or the line factor along the stronger-coupled
// grid direction (DESIGN.md §15), is kept across steps until gamma*tau
// drifts more than 30 % from its shift (refreshShift).
var goldenFamily = map[rosenbrock.LinearSolver]struct {
	sha   string
	flops int64
}{
	rosenbrock.BiCGStab: {"3e1dbdb976940a21d59a5fa5d8a7dc789156dbd10cbdc8e32ad6132efc06dba5", 887359},
	rosenbrock.GMRES:    {"0fe111f677a5c4c8cf455f03cb96ae0187bc0e71db05b1b64e631a26b85d1d10", 1160416},
	rosenbrock.ILU:      {"fb35315f1ffa82bc5c907dc4d3b0070e6bce42bc7ad0c4a7c91c9331d20d1cf5", 806204},
}

// TestDeterminismAcrossCores is the determinism acceptance test:
// Sequential and Concurrent reproduce the golden SHA-256 digest and flop
// count at every team size, for all three linear solvers, with the team
// woken on every phase — and, for Sequential, also with the cut-over out
// of reach, where the same teams never wake. Concurrent runs under every
// value of the deprecated Schedule field, which must all be the pool.
func TestDeterminismAcrossCores(t *testing.T) {
	lowerParMin(t)
	for _, lin := range []rosenbrock.LinearSolver{rosenbrock.BiCGStab, rosenbrock.GMRES, rosenbrock.ILU} {
		lin := lin
		t.Run(lin.String(), func(t *testing.T) {
			base := Params{Root: 2, Level: 2, Tol: 1e-3, Solver: lin, CoresPerWorker: 1}
			ref, err := Sequential(base)
			if err != nil {
				t.Fatal(err)
			}
			want := hashOutput(t, ref)
			gold := goldenFamily[lin]
			if got := hex.EncodeToString(want[:]); got != gold.sha || ref.TotalFlops != gold.flops {
				t.Fatalf("Sequential(cores=1) = digest %s, %d flops; golden %s, %d", got, ref.TotalFlops, gold.sha, gold.flops)
			}
			for _, c := range coresUnderTest() {
				p := base
				p.CoresPerWorker = c
				for _, cut := range []int{1 << 30, 1} { // ends on 1, the setting lowerParMin installed
					linalg.ParMinPhase = cut
					seq, err := Sequential(p)
					if err != nil {
						t.Fatalf("Sequential(cores=%d, cut=%d): %v", c, cut, err)
					}
					if got := hashOutput(t, seq); got != want || seq.TotalFlops != gold.flops {
						t.Errorf("Sequential(cores=%d, cut=%d) differs from the golden run (%d flops, golden %d)", c, cut, seq.TotalFlops, gold.flops)
					}
				}
				for _, sched := range []Schedule{0, ScheduleSteal, ScheduleStealElastic} {
					p.Schedule = sched
					conc, err := Concurrent(p)
					if err != nil {
						t.Fatalf("Concurrent(schedule=%d, cores=%d): %v", sched, c, err)
					}
					if got := hashOutput(t, conc); got != want || conc.TotalFlops != gold.flops {
						t.Errorf("Concurrent(schedule=%d, cores=%d) differs from the golden run (%d flops, golden %d)", sched, c, conc.TotalFlops, gold.flops)
					}
					if conc.Sched != (SchedStats{}) {
						t.Errorf("Concurrent(schedule=%d, cores=%d) reports %+v, want zero", sched, c, conc.Sched)
					}
				}
			}
		})
	}
}

// TestDeterminismAutoAllocation checks the CoresPerWorker=0 path — the
// workmodel-weighted split of GOMAXPROCS across workers — against the
// serial reference.
func TestDeterminismAutoAllocation(t *testing.T) {
	lowerParMin(t)
	base := Params{Root: 2, Level: 2, Tol: 1e-3, CoresPerWorker: 1}
	ref, err := Sequential(base)
	if err != nil {
		t.Fatal(err)
	}
	want := hashOutput(t, ref)
	auto := base
	auto.CoresPerWorker = 0
	seq, err := Sequential(auto)
	if err != nil {
		t.Fatal(err)
	}
	if got := hashOutput(t, seq); got != want {
		t.Error("Sequential(auto cores) output differs from cores=1")
	}
	conc, err := Concurrent(auto)
	if err != nil {
		t.Fatal(err)
	}
	if got := hashOutput(t, conc); got != want {
		t.Error("Concurrent(auto cores) output differs from Sequential(cores=1)")
	}
}
