package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// laneWidths and laneHeights span the grids the lane test multiplies on:
// lines 2 to 8 points long, so that four rows span up to three lines, and
// 31 and 127 long; no, one or seven middle lines; 127 x 9 is longer than
// redChunk.
var (
	laneWidths  = []int{2, 3, 4, 5, 7, 8, 31, 127}
	laneHeights = []int{2, 3, 9}
)

// laneOperands returns the dot operands of mode 0 (none), 1 (one dot, the
// second riding on y as mulVecDot binds it), 2 (two dots) and 3 (u0 is y).
func laneOperands(mode int, y, u, v Vector) (u0, u1 Vector) {
	switch mode {
	case 1:
		return u, y
	case 2:
		return u, v
	case 3:
		return y, u
	}
	return nil, nil
}

// laneStarts are the first rows of the spans the lane test cuts: the
// first nine and last five columns of the first two, a middle and the last
// two lines, so a span starts at every lane offset of a line's start, its
// interior and its end.
func laneStarts(mx, my int) []int {
	var rows []int
	seen := map[int]bool{}
	for _, j := range []int{0, 1, my / 2, my - 2, my - 1} {
		for i := 0; i < mx; i++ {
			if r := j*mx + i; (i < 9 || i >= mx-5) && !seen[r] {
				seen[r] = true
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// laneEnds are the ends of the spans from r0: one to nine rows on, past
// the next line's end, and the last lines.
func laneEnds(r0, mx, n int) []int {
	var ends []int
	for _, r1 := range []int{r0 + 1, r0 + 2, r0 + 3, r0 + 4, r0 + 5, r0 + 6, r0 + 7, r0 + 8, r0 + 9, r0 + mx + 3, n - mx - 1, n - 1, n} {
		if r1 > r0 && r1 <= n && (len(ends) == 0 || r1 > ends[len(ends)-1]) {
			ends = append(ends, r1)
		}
	}
	return ends
}

// laneRun poisons buf, runs f on its middle n elements as y under the
// stencil kernel lanes selects (and leaves it selected), and returns f's
// dots.
func laneRun(lanes bool, buf Vector, g, n int, f func(y Vector) (float64, float64)) (float64, float64) {
	for i := range buf {
		buf[i] = math.Float64frombits(0x7ff8dead0000beef)
	}
	useLanes = lanes
	return f(buf[g : g+n : g+n])
}

// TestStencilLanesMatchGo runs the stencil SpMV through the four-lane
// kernel and through the Go kernel and requires the same bits in every
// output row, in both dots, and nowhere else written: on every grid of
// laneShapes, over spans that start at every lane offset of a line and
// through mulVecDot's chunks, without dots, with one, with two and with u0
// the output itself. x holds Inf, NaN or -0 at the last point of every
// line (every west neighbour a lane masks) or at the first (every east
// one), and the same beyond its ends, where a row of the first or last
// line would find its missing south or north neighbour.
func TestStencilLanesMatchGo(t *testing.T) {
	if !useLanes {
		t.Skip("no four-lane stencil kernel on this host")
	}
	defer func() { useLanes = true }()
	rng := rand.New(rand.NewSource(50))
	for _, mx := range laneWidths {
		for _, my := range laneHeights {
			m := stencilOperator(mx, my, stencilCoeffs)
			n, g := m.Rows, mx+4
			u, v := randVec(rng, n), randVec(rng, n)
			lanesBuf, goBuf := NewVector(n+2*g), NewVector(n+2*g)
			for _, probe := range []float64{math.Inf(1), math.NaN(), math.Copysign(0, -1)} {
				for _, at := range []int{mx - 1, 0} {
					xBuf := NewVector(n + 2*g)
					xBuf.Fill(probe)
					x := xBuf[g : g+n : g+n]
					copy(x, randVec(rng, n))
					for j := 0; j < my; j++ {
						x[j*mx+at] = probe
					}
					name := fmt.Sprintf("%dx%d, %v at column %d", mx, my, probe, at)
					check := func(f func(y Vector) (float64, float64), format string, args ...any) {
						t.Helper()
						what := func() string { return fmt.Sprintf(format, args...) }
						l0, l1 := laneRun(true, lanesBuf, g, n, f)
						g0, g1 := laneRun(false, goBuf, g, n, f)
						for i := range goBuf {
							if math.Float64bits(lanesBuf[i]) != math.Float64bits(goBuf[i]) {
								t.Fatalf("%s %s: y[%d] = %v, the Go kernel's %v", name, what(), i-g, lanesBuf[i], goBuf[i])
							}
						}
						if math.Float64bits(l0) != math.Float64bits(g0) || math.Float64bits(l1) != math.Float64bits(g1) {
							t.Fatalf("%s %s: dots %v, %v, the Go kernel's %v, %v", name, what(), l0, l1, g0, g1)
						}
					}
					for mode := 0; mode < 4; mode++ {
						for _, r0 := range laneStarts(mx, my) {
							for _, r1 := range laneEnds(r0, mx, n) {
								check(func(y Vector) (float64, float64) {
									u0, u1 := laneOperands(mode, y, u, v)
									return m.mulVecSpan(&spmv{y: y, x: x, u0: u0, u1: u1}, r0, r1)
								}, "span [%d,%d) mode %d", r0, r1, mode)
							}
						}
						check(func(y Vector) (float64, float64) {
							u0, u1 := laneOperands(mode, y, u, v)
							switch mode {
							case 0:
								m.MulVec(y, x, nil)
								return 0, 0
							case 1:
								u1 = nil
							}
							return m.mulVecDot(y, x, u0, u1, nil)
						}, "mulVecDot mode %d", mode)
					}
				}
			}
		}
	}
}

// FuzzStencilLanes compares the four-lane stencil SpMV with the Go kernel
// on an mx x my stencil (mx, my 2 to 64) over a span between the rows r0
// and r1, in dot mode 0 to 3 (laneOperands), with x drawn from seed and a
// probe at column at of every line. The seeds are TestStencilLanesMatchGo's
// grids.
func FuzzStencilLanes(f *testing.F) {
	if !useLanes {
		f.Skip("no four-lane stencil kernel on this host")
	}
	for _, mx := range laneWidths {
		for _, my := range laneHeights {
			f.Add(uint8(mx), uint8(my), uint16(1), uint16(mx*my), uint8(mx%4), int64(mx*my), uint8(mx), uint8(my))
		}
	}
	f.Fuzz(func(t *testing.T, mx, my uint8, r0, r1 uint16, mode uint8, seed int64, probe, at uint8) {
		defer func() { useLanes = true }()
		m := stencilOperator(2+int(mx)%63, 2+int(my)%63, stencilCoeffs)
		n, g := m.Rows, m.st.mx+4
		s0, s1 := int(r0)%n, int(r1)%n+1 // a span of at least one row, as mulVecSpan is called with
		if s0 >= s1 {
			s0, s1 = s1-1, s0+1
		}
		rng := rand.New(rand.NewSource(seed))
		x, u, v := randVec(rng, n), randVec(rng, n), randVec(rng, n)
		p := vectorProbes[int(probe)%len(vectorProbes)]
		for r := int(at) % m.st.mx; r < n; r += m.st.mx {
			x[r] = p
		}
		var bufs [2]Vector
		var dots [2][2]float64
		for k, lanes := range []bool{true, false} {
			bufs[k] = NewVector(n + 2*g)
			dots[k][0], dots[k][1] = laneRun(lanes, bufs[k], g, n, func(y Vector) (float64, float64) {
				u0, u1 := laneOperands(int(mode)%4, y, u, v)
				return m.mulVecSpan(&spmv{y: y, x: x, u0: u0, u1: u1}, s0, s1)
			})
		}
		checkSameBits(t, fmt.Sprintf("%dx%d span [%d,%d) mode %d", m.st.mx, m.st.my, s0, s1, mode%4), bufs[0], bufs[1])
		if !sameFloat(dots[0][0], dots[1][0]) || !sameFloat(dots[0][1], dots[1][1]) {
			t.Fatalf("dots %v, the Go kernel's %v", dots[0], dots[1])
		}
	})
}
