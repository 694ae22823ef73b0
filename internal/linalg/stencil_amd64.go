package linalg

// useLanes selects the four-lane kernels for every call that has one: the
// stencil SpMV (mulStencilLanes, stencil_amd64.s), the line sweeps
// (lines_amd64.s) and the vector kernels (kernels_amd64.s). It is true
// where the CPU has AVX2 and the OS saves the YMM registers, found once at
// start. Tests clear it to run the Go kernels, which are the reference, on
// such a host; nothing else writes it.
var useLanes = haveAVX2()

// haveAVX2 reports AVX2 usable: CPUID leaf 7 says AVX2, leaf 1 AVX and
// OSXSAVE, and XCR0 has the XMM and YMM state bits set.
func haveAVX2() bool {
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The lines argument of stencilRows: which of the two line neighbours the
// stretch's rows have.
const (
	laneSouth = 1 << iota
	laneNorth
)

// laneMasks returns the west and east lane masks of a stencil mx wide
// (none for mx 0): entry t of the first mx+3 is all ones unless a row in
// column t mod mx has no west neighbour, and of the next mx+3 unless it
// has no east one, so the four entries from a row's column mask the four
// rows from it.
func laneMasks(mx int) []uint64 {
	if mx == 0 {
		return nil
	}
	m := make([]uint64, 2*(mx+3))
	west, east := m[:mx+3], m[mx+3:]
	for t := range west {
		if t%mx != 0 {
			west[t] = ^uint64(0)
		}
		if t%mx != mx-1 {
			east[t] = ^uint64(0)
		}
	}
	return m
}

// stencilRows computes rows [r, r+rows) of y = A*x for the stencil with
// coefficients c on a grid mx wide, y, x, u0 and u1 pointing at row r's
// element, col being row r's column and masks laneMasks(mx); the rows lie
// on lines that all have the neighbours lines names and none is row 0 or
// the grid's last row. With u0 non-nil it adds the products y[k]*u0[k]
// and y[k]*u1[k] to p0 and p1 in row order, each read after row k is
// stored, and returns them. Four rows a trip, one at a time after the
// last full trip; see mulStencilLanes.
//
//go:noescape
func stencilRows(y, x, u0, u1 *float64, c *[5]float64, rows, mx, col, lines int, masks *uint64, p0, p1 float64) (q0, q1 float64)

// mulStencilLanes is mulStencil, bit for bit, with every row but the
// grid's first and last (which mulStencil computes) taken four at a time
// by stencilRows in 256-bit lanes. A lane's row sums the same products in
// the same order as mulStencil's, multiplies and adds rounded apart (no
// fused multiply-add), and multiplies the west and east neighbours of
// every row: the product of one its row does not store, across a line
// end, is ANDed with a zero mask (m's masks, laneMasks) to an exact +0
// (an Inf or a NaN read there too). Every row's sum starts from +0 and so
// is never -0, which makes adding that +0 an identity. The first line's
// rows take no south term and the last line's no north term, so the span
// goes to stencilRows in up to three stretches.
//
//vetsparse:allocfree
func mulStencilLanes(a *spmv, m *CSR, p0, p1 float64, r0, r1 int) (float64, float64) {
	st := &m.st
	mx, n := st.mx, st.mx*st.my
	// The kernel reads x[0:n), u0 and u1 and the masks, and writes y over
	// [r0, r1) unchecked.
	_, _, _ = a.x[n-1], a.y[r1-1], m.masks[2*(mx+3)-1]
	if a.u0 != nil {
		_, _ = a.u0[r1-1], a.u1[r1-1]
	}
	if r0 == 0 {
		p0, p1 = mulStencil(a, st, p0, p1, 0, 1)
		r0 = 1
	}
	end := min(r1, n-1)
	col := r0 % mx
	for r0 < end {
		e, lines := min(end, n-mx), laneSouth|laneNorth
		switch {
		case r0 < mx:
			e, lines = min(end, mx), laneNorth
		case r0 >= n-mx:
			e, lines = end, laneSouth
		}
		var u0, u1 *float64
		if a.u0 != nil {
			u0, u1 = &a.u0[r0], &a.u1[r0]
		}
		p0, p1 = stencilRows(&a.y[r0], &a.x[r0], u0, u1, &st.c, e-r0, mx, col, lines, &m.masks[0], p0, p1)
		r0, col = e, 0
	}
	if r1 == n {
		p0, p1 = mulStencil(a, st, p0, p1, n-1, n)
	}
	return p0, p1
}
