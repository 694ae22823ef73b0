package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/rosenbrock"
	"repro/internal/serve"
	"repro/internal/solver"
)

// tol is the integrator tolerance of every solve (the paper's 1.0e-3).
const tol = 1e-3

// shape is one solve request: a sparse-grid family and the inner linear
// solver, as the sparsegrid command line and POST /solve both take them.
type shape struct {
	Root, Level int
	Solver      string
}

func (s shape) String() string {
	return fmt.Sprintf("root=%d level=%d solver=%s", s.Root, s.Level, s.Solver)
}

var linearSolvers = map[string]rosenbrock.LinearSolver{
	"bicgstab": rosenbrock.BiCGStab,
	"gmres":    rosenbrock.GMRES,
	"ilu":      rosenbrock.ILU,
}

// params are the solver parameters of the shape with everything else at
// its zero value, which is what cmd/sparsegrid runs.
func (s shape) params() solver.Params {
	return solver.Params{Root: s.Root, Level: s.Level, Tol: tol, Solver: linearSolvers[s.Solver]}
}

// workload is one set of inputs. Service workloads drive an in-process
// solved over loopback HTTP in a closed loop; the others call the two
// drivers of the solver package as cmd/sparsegrid does. Every workload
// also has its shapes pushed through each layer in the traced pass.
type workload struct {
	name, why string
	service   bool
	shapes    []shape
	short     []shape // -short and the tests: same code paths, a tenth of the work
}

func mixedShapes(roots, levels []int) []shape {
	var out []shape
	for _, r := range roots {
		for _, l := range levels {
			for _, s := range []string{"bicgstab", "gmres", "ilu"} {
				out = append(out, shape{r, l, s})
			}
		}
	}
	return out
}

var workloads = []workload{
	{
		name:   "family-deep",
		why:    "the paper's Table-1 shape, 15 cache-resident grids: scheduling and small-n kernel dispatch do the work, ILU and serve do none",
		shapes: []shape{{2, 7, "bicgstab"}}, short: []shape{{2, 4, "bicgstab"}},
	},
	{
		name:   "family-wide",
		why:    "5 grids of 8k-16k unknowns on 2 cores: nothing to schedule; ILU factor and triangular solves, assembly and the team path dominate",
		shapes: []shape{{6, 2, "ilu"}}, short: []shape{{4, 2, "ilu"}},
	},
	{
		name:    "serve-hot",
		why:     "one small shape, 7 signatures in a 64-entry cache: hit rate 1, so admission, queue, batch window, combine, JSON and HTTP are a visible share of latency",
		service: true,
		shapes:  []shape{{2, 3, "bicgstab"}}, short: []shape{{2, 3, "bicgstab"}},
	},
	{
		name:    "serve-mixed",
		why:     "36 shapes shuffled by seed, 135 signatures in a 64-entry cache: two checkouts in three miss, so eviction, assembly and cold ILU factorization dominate; the cache used the other way round",
		service: true,
		shapes:  mixedShapes([]int{1, 2, 3}, []int{1, 2, 3, 4}), short: mixedShapes([]int{1, 2}, []int{1, 2}),
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// splitmix64 is the stateless generator behind the request sequence:
// request i of seed s depends on nothing but (s, i).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// drawShape returns the shape of the i-th request of the seeded sequence.
// The sequence is one seeded shuffle of the shapes after another, not
// independent draws: the shapes' costs differ by two orders of magnitude,
// and a window of a thousand independent draws would differ from the next
// seed's by several per cent in the work it holds.
func drawShape(shapes []shape, seed int64, i int) shape {
	n := len(shapes)
	perm := make([]int, n)
	for j := range perm {
		perm[j] = j
	}
	x := splitmix64(uint64(seed)) + uint64(i/n)
	for j := n - 1; j > 0; j-- {
		x = splitmix64(x)
		k := int(x % uint64(j+1))
		perm[j], perm[k] = perm[k], perm[j]
	}
	return shapes[perm[i%n]]
}

// deadlineMs is the deadline every request carries. It is a guard, not a
// load: the server's own default, wide enough that neither a stall of a
// shared host nor the largest family queued behind nproc others on the
// one batch worker fails a request.
const deadlineMs = 30000

// solveRequest is the POST /solve body for shape s.
func solveRequest(s shape) serve.SolveRequest {
	return serve.SolveRequest{
		Tenant: "bench", Root: s.Root, Level: s.Level, Tol: tol, Solver: s.Solver, DeadlineMs: deadlineMs,
	}
}

// reference is what a correct solve of a shape returns, computed at
// set-up by the sequential driver on one core.
type reference struct {
	hash  [sha256.Size]byte // over the combined solution, bit for bit
	flops int64
	maxU  float64
	grids int
}

func hashField(v linalg.Vector) [sha256.Size]byte {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return sha256.Sum256(buf)
}

func referenceOf(out *solver.Output) reference {
	return reference{
		hash:  hashField(out.Combined.V),
		flops: out.TotalFlops,
		maxU:  out.Combined.V.NormInf(),
		grids: len(out.Results),
	}
}

// checkOutput compares a driver's output with the reference.
func (r reference) checkOutput(out *solver.Output, err error) error {
	if err != nil {
		return err
	}
	if got := referenceOf(out); got != r {
		return fmt.Errorf("output differs from the sequential reference (flops %d want %d, max_u %v want %v)",
			got.flops, r.flops, got.maxU, r.maxU)
	}
	return nil
}

// checkResponse compares a /solve response with the reference; the
// response carries no solution vector, so flops and max_u stand in.
func (r reference) checkResponse(resp serve.SolveResponse) error {
	if resp.Status != serve.StatusCompleted && resp.Status != serve.StatusDegraded {
		return fmt.Errorf("status %s/%s", resp.Status, resp.Reason)
	}
	if resp.Grids != r.grids || resp.Flops != r.flops || resp.MaxU != r.maxU {
		return fmt.Errorf("response differs from the sequential reference (grids %d want %d, flops %d want %d, max_u %v want %v)",
			resp.Grids, r.grids, resp.Flops, r.flops, resp.MaxU, r.maxU)
	}
	return nil
}
