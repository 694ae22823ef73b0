package linalg

import (
	"math/rand"
	"testing"
)

// TestTeamRun holds the deprecated Team stand-in to what benchmark/ reads
// of it: a team of one whose Run covers [0, n) in one call and whose MulVec
// is CSR.MulVec, bits and flop charge alike.
func TestTeamRun(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	if tm.Size() != 1 {
		t.Fatalf("Size = %d, want 1", tm.Size())
	}
	calls := 0
	tm.Run(1000, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 1000 {
			t.Errorf("Run called fn(%d, %d), want fn(0, 1000)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("Run called fn %d times, want 1", calls)
	}

	a := gridOperator(40)
	x := randVec(rand.New(rand.NewSource(5)), a.Cols)
	want, got := NewVector(a.Rows), NewVector(a.Rows)
	var wantOps, gotOps Ops
	a.MulVec(want, x, &wantOps)
	tm.MulVec(a, got, x, &gotOps)
	checkSame(t, "Team.MulVec", got, want)
	if gotOps != wantOps {
		t.Errorf("Team.MulVec charges %d flops, CSR.MulVec %d", gotOps.Flops, wantOps.Flops)
	}
}
