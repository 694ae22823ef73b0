package linalg

// A rowRun is a maximal block of consecutive positions [r0, r1) of a row
// sequence whose rows step by a constant and all store w entries at the
// same column offsets off[:w] from their row. ILU(0)'s sweeps run along
// their level schedules (ilu.go), where a grid level's rows step by the
// grid width minus one: inside a run the index arrays carry no information
// beyond the values, so the sweep kernels stream val without loading a
// column index.
type rowRun struct {
	r0, r1 int
	w      int
	step   int
	off    [maxRunWidth]int
}

const (
	// maxRunWidth is the widest row a sweep kernel takes: the backward
	// sweep's diagonal and two upper entries.
	maxRunWidth = 3
	// minRunRows is the shortest block worth a run entry: below it the
	// per-run slicing costs more than the column loads it saves.
	minRunRows = 4
)

// seqRuns analyses a sequence of rows in O(nnz), once per pattern:
// position p is row rows[p] with stored columns col[ptr[p]:ptr[p+1]]. It
// returns, in order, the maximal blocks of at least minRunRows positions
// whose rows step by a constant, whose entries sit at the same offsets from
// their row, at most maxRunWidth of them, and that keep accepts.
func seqRuns(rows, ptr, col []int32, keep func(run rowRun) bool) []rowRun {
	var runs []rowRun
	for p, n := 0, len(ptr)-1; p < n; {
		r, e, step := int(rows[p]), p+1, 0
		if e < n {
			step = int(rows[e]) - r
		}
	grow:
		for ; e < n && int(rows[e]-rows[e-1]) == step; e++ {
			prev, cur := col[ptr[e-1]:ptr[e]], col[ptr[e]:ptr[e+1]]
			if len(cur) != len(prev) {
				break
			}
			for j, c := range cur {
				if int(c) != int(prev[j])+step {
					break grow
				}
			}
		}
		run := rowRun{r0: p, r1: e, w: int(ptr[p+1] - ptr[p]), step: step}
		p = e
		if run.r1-run.r0 < minRunRows || run.w > maxRunWidth {
			continue
		}
		for j, c := range col[ptr[run.r0]:ptr[run.r0+1]] {
			run.off[j] = int(c) - r
		}
		if keep(run) {
			runs = append(runs, run)
		}
	}
	return runs
}
