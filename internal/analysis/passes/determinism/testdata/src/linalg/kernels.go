// Package linalg fixtures exercise the worker-range accumulator rule: a
// kernel (trailing lo, hi int parameters) must not fold its whole range
// into one function-level float.
package linalg

// badDot folds the whole [lo, hi) range into one function-level
// accumulator, so the partial depends on how the team splits the range.
func badDot(a, b []float64, lo, hi int) float64 {
	s := 0.0
	for i := lo; i < hi; i++ {
		s += a[i] * b[i] // want `float accumulation across the whole \[lo, hi\) worker range`
	}
	return s
}

// badNorm uses the s = s + x spelling; still a whole-range fold.
func badNorm(v []float64, lo, hi int) float64 {
	sum := 0.0
	for i := lo; i < hi; i++ {
		sum = sum + v[i]*v[i] // want `float accumulation across the whole \[lo, hi\) worker range`
	}
	return sum
}

// goodDot follows the redChunk discipline: fixed 1024-element chunks with
// chunk-local partials written to a per-chunk slot.
func goodDot(partial, a, b []float64, c0, c1 int) {
	for c := c0; c < c1; c++ {
		lo, hi := c*1024, (c+1)*1024
		if hi > len(a) {
			hi = len(a)
		}
		p := 0.0
		for i := lo; i < hi; i++ {
			p += a[i] * b[i]
		}
		partial[c] = p
	}
}

// axpyRange is elementwise over the range: no reduction, nothing to flag.
func axpyRange(y, x []float64, a float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		y[i] += a * x[i]
	}
}

// goodRunRows is the shape of a diagonal-run SpMV kernel: every row starts
// a fresh accumulator, so y[i] is the same wherever a team cuts [r0, r1).
func goodRunRows(y, v, x0, x1 []float64, r0, r1 int) {
	for i := r0; i < r1; i++ {
		s := 0.0 + v[2*i]*x0[i]
		s += v[2*i+1] * x1[i]
		y[i] = s
	}
}

// badRunRows carries one accumulator across the rows: y[i] then depends on
// the first row of the range, that is on the team split.
func badRunRows(y, v, x0, x1 []float64, r0, r1 int) {
	s := 0.0
	for i := r0; i < r1; i++ {
		s += v[2*i] * x0[i]   // want `float accumulation across the whole \[r0, r1\) worker range`
		s += v[2*i+1] * x1[i] // want `float accumulation across the whole \[r0, r1\) worker range`
		y[i] = s
	}
}

// phaseStep models one op of a fused-phase micro-program: operands bound at
// build time, executed per worker range by a plan interpreter.
type phaseStep struct {
	x, y    []float64
	partial []float64
}

// badFusedDotStep executes a fused phase's reduction step with one
// function-level accumulator over the whole worker range: fusing ops into a
// micro-program does not lift the chunk discipline.
func badFusedDotStep(st *phaseStep, lo, hi int) float64 {
	s := 0.0
	for i := lo; i < hi; i++ {
		s += st.x[i] * st.y[i] // want `float accumulation across the whole \[lo, hi\) worker range`
	}
	return s
}

// goodFusedDotStep keeps the redChunk discipline inside the fused phase:
// the worker's range is chunk-aligned, so the step fills exactly its own
// slots of the plan's partial buffer with chunk-local accumulators.
func goodFusedDotStep(st *phaseStep, c0, c1 int) {
	for c := c0; c < c1; c++ {
		lo, hi := c*1024, (c+1)*1024
		if hi > len(st.x) {
			hi = len(st.x)
		}
		p := 0.0
		for i := lo; i < hi; i++ {
			p += st.x[i] * st.y[i]
		}
		st.partial[c] = p
	}
}

// badSlicedDotStep is the same whole-range fold in the interpreter's
// bounds-check-free spelling: the operands are cut to [lo, hi) once and the
// loop ranges over the cut. Hiding the range in a slice header does not
// make the sum independent of where the team cut it.
func badSlicedDotStep(st *phaseStep, lo, hi int) float64 {
	x := st.x[lo:hi]
	y := st.y[lo:hi][:len(x)]
	s := 0.0
	for i, xv := range x {
		s += xv * y[i] // want `float accumulation across the whole \[lo, hi\) worker range`
	}
	return s
}

// goodSlicedAXPYStep is an elementwise step in that spelling: every
// element is computed on its own, whatever range it arrives in.
func goodSlicedAXPYStep(st *phaseStep, a float64, lo, hi int) {
	y := st.y[lo:hi]
	x := st.x[lo:hi][:len(y)]
	for i := range y {
		y[i] += a * x[i]
	}
}

// goodSlicedDotStep folds chunk by chunk inside [lo, hi): the accumulator
// is chunk-local, so the partials do not depend on the cut.
func goodSlicedDotStep(st *phaseStep, lo, hi int) {
	for ; lo < hi; lo += 1024 {
		end := lo + 1024
		if end > hi {
			end = hi
		}
		x := st.x[lo:end]
		y := st.y[lo:end][:len(x)]
		p := 0.0
		for i, xv := range x {
			p += xv * y[i]
		}
		st.partial[lo/1024] = p
	}
}

// goodFusedTwoDots is the shape of a fused elementwise-plus-reduction kernel
// with two accumulators: both restart at every chunk, so the partial pairs
// do not depend on where a team cut [lo, hi).
func goodFusedTwoDots(part0, part1, r, s, t, q []float64, a float64, lo, hi int) {
	for ; lo < hi; lo += 1024 {
		end := lo + 1024
		if end > hi {
			end = hi
		}
		rr := r[lo:end]
		ss, tt, qq := s[lo:end][:len(rr)], t[lo:end][:len(rr)], q[lo:end][:len(rr)]
		p0, p1 := 0.0, 0.0
		for i := range rr {
			e := ss[i] + a*tt[i]
			rr[i] = e
			p0 += e * e
			p1 += qq[i] * e
		}
		part0[lo/1024], part1[lo/1024] = p0, p1
	}
}

// badFusedTwoDots writes a partial per chunk but never restarts its
// accumulators: chunk c's partial carries every chunk before it in the
// worker's range, that is, it depends on the first chunk the worker owns.
func badFusedTwoDots(part0, part1, r, s, t, q []float64, a float64, lo, hi int) {
	p0, p1 := 0.0, 0.0
	for ; lo < hi; lo += 1024 {
		end := lo + 1024
		if end > hi {
			end = hi
		}
		for i := lo; i < end; i++ {
			e := s[i] + a*t[i]
			r[i] = e
			p0 += e * e    // want `float accumulation across the whole \[lo, hi\) worker range`
			p1 += q[i] * e // want `float accumulation across the whole \[lo, hi\) worker range`
		}
		part0[lo/1024], part1[lo/1024] = p0, p1
	}
}
