package solver

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/rosenbrock"
)

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

// goldenFamily pins the root-2 level-2 tol-1e-3 family per linear solver:
// the hashOutput digest and Output.TotalFlops of Sequential, the source of
// every row. Comparing runs only against each other would prove
// self-consistency of the one phase interpreter, not that it still computes
// what it did. The rows pin the kernels and rosenbrock's default inner
// tolerance, LinTol = 1e-2*Tol, together; linalg's golden digests pass an
// explicit tolerance and pin the kernels alone. A row that moves while
// those hold is the rule moving, and only a change of the rule regenerates
// it. Both pin the scaled stage system (1/(gamma*tau))*I - J with its
// scaled right-hand sides (DESIGN.md §16), and the stage solves' starting
// values: the extrapolation of the last predOrder = 4 accepted steps' stage
// vectors (DESIGN.md §17). They pin a second rule as well: their
// preconditioner, ILU(0) or the line factor along the stronger-coupled
// grid direction (DESIGN.md §15), is kept across steps until gamma*tau
// drifts more than 30 % from its shift (refreshShift).
var goldenFamily = map[rosenbrock.LinearSolver]struct {
	sha   string
	flops int64
}{
	rosenbrock.BiCGStab: {"3e1dbdb976940a21d59a5fa5d8a7dc789156dbd10cbdc8e32ad6132efc06dba5", 887359},
	rosenbrock.ILU:      {"fb35315f1ffa82bc5c907dc4d3b0070e6bce42bc7ad0c4a7c91c9331d20d1cf5", 806204},
}

// TestDeterminismAcrossCores is the determinism acceptance test:
// Sequential and Concurrent reproduce the golden SHA-256 digest and flop
// count for both linear solvers, whatever GOMAXPROCS the test runs under
// (CI runs it at 1 and 4). Concurrent runs under every value of the
// deprecated Schedule field, which must all be the pool.
func TestDeterminismAcrossCores(t *testing.T) {
	for _, lin := range []rosenbrock.LinearSolver{rosenbrock.BiCGStab, rosenbrock.ILU} {
		lin := lin
		t.Run(lin.String(), func(t *testing.T) {
			p := Params{Root: 2, Level: 2, Tol: 1e-3, Solver: lin}
			seq, err := Sequential(p)
			if err != nil {
				t.Fatal(err)
			}
			want := hashOutput(t, seq)
			gold := goldenFamily[lin]
			if got := hex.EncodeToString(want[:]); got != gold.sha || seq.TotalFlops != gold.flops {
				t.Fatalf("Sequential = digest %s, %d flops; golden %s, %d", got, seq.TotalFlops, gold.sha, gold.flops)
			}
			for _, sched := range []Schedule{0, ScheduleSteal, ScheduleStealElastic} {
				p.Schedule = sched
				conc, err := Concurrent(p)
				if err != nil {
					t.Fatalf("Concurrent(schedule=%d): %v", sched, err)
				}
				if got := hashOutput(t, conc); got != want || conc.TotalFlops != gold.flops {
					t.Errorf("Concurrent(schedule=%d) differs from the golden run (%d flops, golden %d)", sched, conc.TotalFlops, gold.flops)
				}
				if conc.Sched != (SchedStats{}) {
					t.Errorf("Concurrent(schedule=%d) reports %+v, want zero", sched, conc.Sched)
				}
			}
		})
	}
}
