package linalg

import (
	"math/rand"
	"testing"
)

// TestTeamResizeBitIdentical drives the same kernel sequence through a
// fixed-size team and a team that is elastically resized between
// dispatches, and requires bit-for-bit identical outputs: the fixed-chunk
// ordered reductions make results independent of team size, so a resize
// can never change them.
func TestTeamResizeBitIdentical(t *testing.T) {
	lowerParMin(t)
	rng := rand.New(rand.NewSource(11))
	const n = 5000
	a := gridOperator(70)
	x := randVec(rng, n)
	y := randVec(rng, n)
	gx := randVec(rng, a.Cols)

	fixed := NewTeam(4)
	defer fixed.Close()
	elastic := NewTeam(2)
	defer elastic.Close()

	sizes := []int{1, 4, 2, 3, 4, 1, 2}
	for step, size := range sizes {
		elastic.SetTarget(size)

		var fops, eops Ops
		df := teamDot(fixed, x, y)
		de := teamDot(elastic, x, y)
		if df != de {
			t.Errorf("step %d (target %d): Dot = %v, want %v", step, size, de, df)
		}
		if got := elastic.Size(); got != size {
			t.Errorf("step %d: Size after dispatch = %d, want %d", step, got, size)
		}

		yf, ye := NewVector(a.Rows), NewVector(a.Rows)
		fixed.MulVec(a, yf, gx, &fops)
		elastic.MulVec(a, ye, gx, &eops)
		for i := range yf {
			if yf[i] != ye[i] {
				t.Fatalf("step %d: MulVec[%d] = %v, want %v", step, i, ye[i], yf[i])
			}
		}

		wf, we := NewVector(n), NewVector(n)
		copy(wf, x)
		copy(we, x)
		teamAXPY(fixed, wf, 0.25, y)
		teamAXPY(elastic, we, 0.25, y)
		for i := range wf {
			if wf[i] != we[i] {
				t.Fatalf("step %d: AXPY[%d] = %v, want %v", step, i, we[i], wf[i])
			}
		}
	}
}

// TestTeamResizePhaseBitIdentical resizes across fused-phase dispatches:
// the grown/shrunk team recomputes chunk-aligned ranges and must produce
// the whole-range (no team) interpretation's exact result at every size.
func TestTeamResizePhaseBitIdentical(t *testing.T) {
	lowerParMin(t)
	rng := rand.New(rand.NewSource(12))
	const n = 4096 + 137
	x := randVec(rng, n)
	y := randVec(rng, n)

	elastic := NewTeam(1) // starts serial; first SetTarget must grow it
	defer elastic.Close()

	a := 0.5
	for _, size := range []int{2, 4, 1, 3} {
		elastic.SetTarget(size)

		ds, dp := NewVector(n), NewVector(n)
		copy(ds, x)
		copy(dp, x)

		var ser Phase
		ser.Reset(n)
		ser.AXPY(ds, &a, y)
		ser.Dot(0, ds, y)
		(*Team)(nil).RunPhase(&ser)
		sdot := ser.Fold(0)

		var par Phase
		par.Reset(n)
		par.AXPY(dp, &a, y)
		par.Dot(0, dp, y)
		elastic.RunPhase(&par)
		pdot := par.Fold(0)

		if got := elastic.Size(); got != size {
			t.Errorf("Size after RunPhase = %d, want %d", got, size)
		}
		if pdot != sdot {
			t.Errorf("size %d: phase Dot = %v, want %v", size, pdot, sdot)
		}
		for i := range ds {
			if ds[i] != dp[i] {
				t.Fatalf("size %d: phase AXPY[%d] = %v, want %v", size, i, dp[i], ds[i])
			}
		}
	}
}

type recordResize struct {
	events []struct {
		us       int64
		from, to int
	}
}

func (r *recordResize) ObserveResize(us int64, from, to int) {
	r.events = append(r.events, struct {
		us       int64
		from, to int
	}{us, from, to})
}

// TestTeamResizeObserver checks that every applied resize reports a
// non-negative request-to-application latency and the exact size change,
// and that no-op targets (same size) report nothing.
func TestTeamResizeObserver(t *testing.T) {
	lowerParMin(t)
	rng := rand.New(rand.NewSource(13))
	x := randVec(rng, 2048)
	y := randVec(rng, 2048)

	rec := &recordResize{}
	tm := NewTeam(2)
	defer tm.Close()
	tm.SetResizeObserver(rec)

	tm.SetTarget(4)
	teamDot(tm, x, y)
	tm.SetTarget(4) // same size: applied as a no-op, not observed
	teamDot(tm, x, y)
	tm.SetTarget(1)
	teamDot(tm, x, y)

	want := []struct{ from, to int }{{2, 4}, {4, 1}}
	if len(rec.events) != len(want) {
		t.Fatalf("observed %d resizes, want %d: %+v", len(rec.events), len(want), rec.events)
	}
	for i, ev := range rec.events {
		if ev.from != want[i].from || ev.to != want[i].to {
			t.Errorf("resize %d = %d->%d, want %d->%d", i, ev.from, ev.to, want[i].from, want[i].to)
		}
		if ev.us < 0 {
			t.Errorf("resize %d latency %dus < 0", i, ev.us)
		}
	}
}

// TestTeamResizeClamps checks SetTarget clamping and that a pending
// request left unapplied at Close neither panics nor resurrects workers.
func TestTeamResizeClamps(t *testing.T) {
	lowerParMin(t)
	rng := rand.New(rand.NewSource(14))
	x := randVec(rng, 1024)
	y := randVec(rng, 1024)

	tm := NewTeam(2)
	tm.SetTarget(0) // clamps to 1
	teamDot(tm, x, y)
	if got := tm.Size(); got != 1 {
		t.Errorf("Size after SetTarget(0) = %d, want 1", got)
	}
	tm.SetTarget(MaxTeam + 5) // clamps to MaxTeam, pending
	tm.Close()
	if got := tm.Size(); got != 1 {
		t.Errorf("Size after Close = %d, want 1", got)
	}
	// Kernels on the closed team still work, serially, and must not
	// apply the stale pending target.
	if got, want := teamDot(tm, x, y), x.Dot(y, nil); got != want {
		t.Errorf("closed-team Dot = %v, want %v", got, want)
	}
	if got := tm.Size(); got != 1 {
		t.Errorf("Size after post-Close dispatch = %d, want 1", got)
	}

	var nilTeam *Team
	nilTeam.SetTarget(4) // no-op, must not panic
	nilTeam.SetResizeObserver(nil)
}
