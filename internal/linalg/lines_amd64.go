package linalg

// lineSweepStride runs solve's two sweeps over four groups of four adjacent
// y-lines, m positions each, stride elements apart: x and b point at the
// grid's first row, w, u and inv at the one-line factor, and groups holds
// each group's first line, the groups allowed to overlap. Each lane is one
// line, computed by sweepLines' expression for every position: the forward
// sweep carries every group's previous position in a register from +0 (w's
// first entry is +0), the backward one from +0 too (u's last entry is +0),
// and at each position the backward sweep loads every group's operands
// before it stores any, so a line two groups share reads its forward value
// in both.
//
//go:noescape
func lineSweepStride(x, b, w, u, inv *float64, m, stride int, groups *[4]int)

// lineSweepOffset is lineSweepStride for four groups of four x-lines, each
// line m positions long and stride elements after the one before it,
// groups holding each group's first element. Two positions of a group's
// four lines come in as four two-element rows and turn into two position
// vectors (a transpose by unpacks), and go back out as rows; an odd m's
// last position is gathered and scattered alone.
//
//go:noescape
func lineSweepOffset(x, b, w, u, inv *float64, m, stride int, groups *[4]int)

// lineBatch is how many lines a kernel call sweeps: four groups of four,
// which the kernels interleave to cover a multiply and a subtract's
// latency.
const lineBatch = 16

// sweepLanes is sweepLines in lanes, on at least four lines: the lines go
// in batches to the kernel that sweeps their layout, each group of four at
// the batch's next four lines, the last one ending at the batch's end (and
// overlapping the one before where the count is no multiple of four). A
// batch's lines are swept by no other batch.
//
//vetsparse:allocfree
func (lf *lineFactor) sweepLanes(x, b Vector) {
	n, m := len(b), lf.m
	// The kernels read b, w, u and inv and write x unchecked.
	_, _, _, _, _ = x[n-1], b[n-1], lf.w[m-1], lf.u[m-1], lf.inv[m-1]
	w, u, inv := &lf.w[0], &lf.u[0], &lf.inv[0]
	var g [4]int
	if lines := lf.d; lines > 1 {
		for c := 0; c < lines; {
			l := batchLines(lines-c, lineBatch)
			groupsOf(&g, c, l, 1)
			lineSweepStride(&x[0], &b[0], w, u, inv, m, lines, &g)
			c += l
		}
		return
	}
	lines := n / m
	for c := 0; c < lines; {
		l := batchLines(lines-c, lineBatch)
		groupsOf(&g, c, l, m)
		lineSweepOffset(&x[0], &b[0], w, u, inv, m, m, &g)
		c += l
	}
}

// batchLines returns the size of the next batch of a sweep with rest >= 4
// lines left: all of them up to size, else size, or fewer where size would
// leave less than four.
func batchLines(rest, size int) int {
	switch {
	case rest <= size:
		return rest
	case rest-size < 4:
		return rest - 4
	}
	return size
}

// groupsOf sets g to the first elements of the four groups that sweep
// lines [c, c+l), each line stride elements after the one before it: a
// group at every fourth line, the last ones at the batch's last four.
func groupsOf(g *[4]int, c, l, stride int) {
	for k := range g {
		g[k] = (c + min(4*k, l-4)) * stride
	}
}
