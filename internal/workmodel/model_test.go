package workmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

func TestSequentialAnchorLevel15(t *testing.T) {
	m := Paper()
	// The model is anchored to the paper's st(15) for both tolerances.
	st3 := m.SequentialSeconds(2, 15, 1e-3, 1200)
	if math.Abs(st3-2019.02)/2019.02 > 0.01 {
		t.Errorf("st(15, 1e-3) = %g, want ~2019.02", st3)
	}
	st4 := m.SequentialSeconds(2, 15, 1e-4, 1200)
	if math.Abs(st4-4118.08)/4118.08 > 0.01 {
		t.Errorf("st(15, 1e-4) = %g, want ~4118.08", st4)
	}
}

func TestSequentialGrowthRate(t *testing.T) {
	// The paper's sequential time grows by ~2.42x per level at high
	// levels.
	m := Paper()
	for l := 11; l <= 15; l++ {
		r := m.SequentialSeconds(2, l, 1e-3, 1200) / m.SequentialSeconds(2, l-1, 1e-3, 1200)
		if r < 2.2 || r < 0 || r > 2.7 {
			t.Errorf("growth st(%d)/st(%d) = %g, want ~2.42", l, l-1, r)
		}
	}
}

func TestToleranceRoughlyDoublesWork(t *testing.T) {
	m := Paper()
	for _, l := range []int{8, 12, 15} {
		r := m.SequentialSeconds(2, l, 1e-4, 1200) / m.SequentialSeconds(2, l, 1e-3, 1200)
		if r < 1.5 || r > 2.3 {
			t.Errorf("level %d: st(1e-4)/st(1e-3) = %g, want ~1.7-2.1", l, r)
		}
	}
}

func TestUShapedImbalance(t *testing.T) {
	// Across one grid level the end grids must cost more than the middle
	// one, with the (i, 0) end heavier (a1 > a2), as the instrumented real
	// solver showed.
	m := Paper()
	lm := 10
	end0 := m.GridWork(grid.Grid{Root: 2, L1: lm, L2: 0}, 1e-3)
	endN := m.GridWork(grid.Grid{Root: 2, L1: 0, L2: lm}, 1e-3)
	mid := m.GridWork(grid.Grid{Root: 2, L1: lm / 2, L2: lm - lm/2}, 1e-3)
	if !(end0 > endN && endN > mid) {
		t.Fatalf("imbalance order violated: (lm,0)=%g (0,lm)=%g mid=%g", end0, endN, mid)
	}
	if end0/mid < 1.5 || end0/mid > 6 {
		t.Errorf("max/mid = %g, want a clear but bounded imbalance", end0/mid)
	}
}

func TestImbalanceSteepensWithTolerance(t *testing.T) {
	m := Paper()
	ratio := func(tol float64) float64 {
		end := m.GridWork(grid.Grid{Root: 2, L1: 12, L2: 0}, tol)
		mid := m.GridWork(grid.Grid{Root: 2, L1: 6, L2: 6}, tol)
		return end / mid
	}
	if ratio(1e-4) <= ratio(1e-3) {
		t.Fatalf("imbalance at 1e-4 (%g) not steeper than at 1e-3 (%g)", ratio(1e-4), ratio(1e-3))
	}
}

func TestBytesScaleWithCells(t *testing.T) {
	small := grid.Grid{Root: 2, L1: 0, L2: 0}
	big := grid.Grid{Root: 2, L1: 5, L2: 5}
	if JobBytes(big) <= JobBytes(small) || ResultBytes(big) <= ResultBytes(small) {
		t.Fatal("message sizes must grow with the grid")
	}
	if JobBytes(big) <= ResultBytes(big) {
		t.Fatal("job data (input fields + workspace) must exceed result data")
	}
}

func TestRootScaling(t *testing.T) {
	m := Paper()
	w2 := m.GridWork(grid.Grid{Root: 2, L1: 3, L2: 3}, 1e-3)
	w3 := m.GridWork(grid.Grid{Root: 3, L1: 3, L2: 3}, 1e-3)
	if math.Abs(w3/w2-4) > 1e-9 {
		t.Fatalf("root+1 work ratio = %g, want 4 (4x cells)", w3/w2)
	}
}

// Property: work is positive and monotone in level along both axes.
func TestPropWorkMonotone(t *testing.T) {
	m := Paper()
	f := func(iRaw, jRaw uint8) bool {
		i, j := int(iRaw%14), int(jRaw%14)
		g := grid.Grid{Root: 2, L1: i, L2: j}
		w := m.GridWork(g, 1e-3)
		if w <= 0 {
			return false
		}
		wx := m.GridWork(grid.Grid{Root: 2, L1: i + 1, L2: j}, 1e-3)
		wy := m.GridWork(grid.Grid{Root: 2, L1: i, L2: j + 1}, 1e-3)
		return wx > w && wy > w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the sequential total equals init + prolong + the sum of the
// family's grid works.
func TestPropSequentialIsSumOfParts(t *testing.T) {
	m := Paper()
	f := func(lRaw uint8) bool {
		l := int(lRaw % 12)
		sum := m.InitMc + m.ProlongWork(2, l)
		for _, g := range grid.Family(2, l) {
			sum += m.GridWork(g, 1e-3)
		}
		return math.Abs(sum-m.SequentialMc(2, l, 1e-3)) < 1e-9*sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
