package solver

import (
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/grid"
	"repro/internal/pde"
	"repro/internal/workmodel"
)

// TestConcurrentMatchesSequential is the reproduction of the paper's §6
// claim: "These are written to a file and are exactly the same as in the
// sequential version." Combination order is fixed to family order, so the
// concurrent output must be bit-for-bit identical.
func TestConcurrentMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		level int
		tol   float64
	}{
		{0, 1e-3},
		{1, 1e-3},
		{2, 1e-3},
		{3, 1e-3},
		{2, 1e-4},
	} {
		p := Params{Root: 2, Level: tc.level, Tol: tc.tol}
		seq, err := Sequential(p)
		if err != nil {
			t.Fatalf("sequential level %d: %v", tc.level, err)
		}
		conc, err := Concurrent(p)
		if err != nil {
			t.Fatalf("concurrent level %d: %v", tc.level, err)
		}
		if len(seq.Results) != len(conc.Results) {
			t.Fatalf("level %d: %d vs %d results", tc.level, len(seq.Results), len(conc.Results))
		}
		for i := range seq.Results {
			if seq.Results[i].Grid != conc.Results[i].Grid {
				t.Fatalf("level %d result %d: grid %v vs %v", tc.level, i, seq.Results[i].Grid, conc.Results[i].Grid)
			}
			for j := range seq.Results[i].U {
				if seq.Results[i].U[j] != conc.Results[i].U[j] {
					t.Fatalf("level %d grid %v: u[%d] differs: %g vs %g",
						tc.level, seq.Results[i].Grid, j, seq.Results[i].U[j], conc.Results[i].U[j])
				}
			}
		}
		for j := range seq.Combined.V {
			if seq.Combined.V[j] != conc.Combined.V[j] {
				t.Fatalf("level %d: combined[%d] differs: %g vs %g",
					tc.level, j, seq.Combined.V[j], conc.Combined.V[j])
			}
		}
	}
}

func TestConcurrentMatchesSequentialManufactured(t *testing.T) {
	prob := pde.ManufacturedProblem(1, 0.5, 0.05)
	p := Params{Root: 2, Level: 2, Tol: 1e-4, Problem: prob, TEnd: 0.1}
	seq, err := Sequential(p)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := Concurrent(p)
	if err != nil {
		t.Fatal(err)
	}
	if d := seq.Combined.MaxDiff(conc.Combined); d != 0 {
		t.Fatalf("combined fields differ by %g, want exact equality", d)
	}
}

func TestConcurrentUsesParallelism(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >= 2 CPUs")
	}
	// Smoke check only: the concurrent version finishes and produces the
	// right number of per-grid results while running workers as separate
	// goroutines (concurrency itself is asserted in core's tests).
	out, err := Concurrent(Params{Root: 2, Level: 3, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 7 {
		t.Fatalf("results = %d, want 7", len(out.Results))
	}
}

func TestConcurrentValidatesParams(t *testing.T) {
	if _, err := Concurrent(Params{Root: 0, Level: 1, Tol: 1e-3}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

// TestLargestFirst holds the shared order helper to the sort Concurrent
// carried inline before the serve batcher needed the same order: workmodel
// weights, descending, ties in family order. Every family yields a
// permutation that starts at the critical-path grid.
func TestLargestFirst(t *testing.T) {
	for _, tc := range []struct {
		root, level int
		tol         float64
	}{
		{1, 0, 1e-2}, {1, 1, 1e-2}, {2, 3, 1e-3}, {2, 3, 1e-4}, {3, 4, 1e-3}, {2, 7, 1e-3},
	} {
		fam := grid.Family(tc.root, tc.level)
		model := workmodel.Paper()
		wantW := make([]float64, len(fam))
		for i, g := range fam {
			wantW[i] = model.GridWork(g, tc.tol)
		}
		want := make([]int, len(fam))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool {
			return wantW[want[a]] > wantW[want[b]]
		})

		order, weights := LargestFirst(fam, tc.tol)
		if !slices.Equal(order, want) || !slices.Equal(weights, wantW) {
			t.Fatalf("root %d level %d tol %g: order %v weights %v, the inline sort gave %v and %v", tc.root, tc.level, tc.tol, order, weights, want, wantW)
		}
		seen := make([]bool, len(fam))
		for k, i := range order {
			if seen[i] {
				t.Fatalf("root %d level %d: index %d twice in %v", tc.root, tc.level, i, order)
			}
			seen[i] = true
			if k > 0 && weights[order[k-1]] < weights[i] {
				t.Fatalf("root %d level %d: %v is not descending in %v", tc.root, tc.level, order, weights)
			}
		}
	}
	// The shape of serve-hot: the fine diagonal's most anisotropic grid leads,
	// the coarse diagonal — which the family order starts with — comes last.
	if order, _ := LargestFirst(grid.Family(2, 3), 1e-3); !slices.Equal(order, []int{6, 5, 3, 4, 2, 1, 0}) {
		t.Fatalf("root 2 level 3: order %v", order)
	}
}
