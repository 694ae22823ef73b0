package linalg

// redChunk is the fixed reduction chunk: dot products and norms are summed
// as per-chunk partials folded in chunk order, so the association of every
// sum depends only on the vector length. Vectors shorter than one chunk
// reduce to the classic single running sum.
const redChunk = 1024

// The kernels BiCGStab and the Rosenbrock step call: the fused BiCGStab
// steps below, the reducing product (CSR.mulVecDot), the elementwise
// Vector methods (AXPY, Sub, SetScaled, SetAXPY, SetLinComb) and the
// step's reducing update (SetAXPBYWRMS). Each cuts its operands to
// dst's length once, which lets the compiler drop the per-element bounds
// checks. They are out of line and the ones an iteration runs are unrolled
// by four, for the same reason: a loop of a handful of instructions is
// bound by instruction fetch, not arithmetic, and on the benchmark host it
// runs 1.7x slower when the linker happens to lay it across a 64-byte line.
// Inlined into a large caller, a loop moves with every unrelated edit to
// that caller — once 15 % of a whole solve on systems of a hundred
// unknowns. Four elements a trip pay the straddle once per four and make
// the placement irrelevant; each element is still computed by the same
// expression, so the bits are too. Each kernel charges its own flops. Where
// useLanes is set, all but dotChunks and sStepChunks hand their loop to a
// lane twin (kernels_amd64.go), and the loops here are the portable path
// and the reference.

// dirRange is the BiCGStab direction step pv = r + beta*(pv - omega*v).
//
//go:noinline
//vetsparse:allocfree
func dirRange(pv, r, v Vector, beta, omega float64, ops *Ops) {
	r, v = r[:len(pv)], v[:len(pv)]
	ops.Add(4 * int64(len(pv)))
	if useLanes && len(pv) > 0 {
		dirRangeLanes(&pv[0], &r[0], &v[0], len(pv), beta, omega)
		return
	}
	i := 0
	for ; i+4 <= len(pv); i += 4 {
		p, r, v := pv[i:i+4:i+4], r[i:i+4:i+4], v[i:i+4:i+4]
		p[0], p[1] = r[0]+beta*(p[0]-omega*v[0]), r[1]+beta*(p[1]-omega*v[1])
		p[2], p[3] = r[2]+beta*(p[2]-omega*v[2]), r[3]+beta*(p[3]-omega*v[3])
	}
	for ; i < len(pv); i++ {
		pv[i] = r[i] + beta*(pv[i]-omega*v[i])
	}
}

// The reducing kernels sum each chunk of redChunk elements from a fresh +0
// accumulator fed one product per element in index order, and return the
// chunk partials added in chunk order from +0: the sum Vector.Dot
// accumulates. dotChunks is unrolled by four like the elementwise kernels,
// with the products still added one by one. The fused ones take each
// product of the element the same trip has just written: the bits of the
// elementwise step followed by dotChunks, in one sweep. The ordered sum's
// chain of dependent adds bounds those loops, so they are not unrolled.

// dotChunks returns <a, b>.
//
//go:noinline
//vetsparse:allocfree
func dotChunks(a, b Vector, ops *Ops) float64 {
	s := 0.0
	for lo := 0; lo < len(a); lo += redChunk {
		x := a[lo:min(lo+redChunk, len(a))]
		y := b[lo:][:len(x)]
		p := 0.0
		i := 0
		for ; i+4 <= len(x); i += 4 {
			x, y := x[i:i+4:i+4], y[i:i+4:i+4]
			p += x[0] * y[0]
			p += x[1] * y[1]
			p += x[2] * y[2]
			p += x[3] * y[3]
		}
		for ; i < len(x); i++ {
			p += x[i] * y[i]
		}
		s += p
	}
	ops.Add(2 * int64(len(a)))
	return s
}

// sStepChunks is the BiCGStab s step s = r + a*v (s may alias r or v); it
// returns <s, s>.
//
//go:noinline
//vetsparse:allocfree
func sStepChunks(sv, rv Vector, a float64, vv Vector, ops *Ops) float64 {
	ss := 0.0
	for lo := 0; lo < len(sv); lo += redChunk {
		s := sv[lo:min(lo+redChunk, len(sv))]
		r, v := rv[lo:][:len(s)], vv[lo:][:len(s)]
		p := 0.0
		for i := range s {
			e := r[i] + a*v[i]
			s[i] = e
			p += e * e
		}
		ss += p
	}
	ops.Add(4 * int64(len(sv)))
	return ss
}

// xrChunks is the BiCGStab iteration tail x += alpha*ph + omega*sh,
// r = s - omega*t; it returns <r, r> and <rt, r>. The second is the next
// iteration's rho, so its 2n flops are charged by the iteration that
// consumes it: a solve that converges here never pays for it.
//
//go:noinline
//vetsparse:allocfree
func xrChunks(xv Vector, alpha float64, phv Vector, omega float64, shv, rv, sv, tv, rtv Vector, ops *Ops) (rr, rtr float64) {
	negOmega := -omega
	for lo := 0; lo < len(xv); lo += redChunk {
		x := xv[lo:min(lo+redChunk, len(xv))]
		ph, sh := phv[lo:][:len(x)], shv[lo:][:len(x)]
		r, s := rv[lo:][:len(x)], sv[lo:][:len(x)]
		t, rt := tv[lo:][:len(x)], rtv[lo:][:len(x)]
		if useLanes {
			p0, p1 := xrLanes(&x[0], &ph[0], &sh[0], &r[0], &s[0], &t[0], &rt[0], len(x), alpha, omega, negOmega)
			rr += p0
			rtr += p1
			continue
		}
		p0, p1 := 0.0, 0.0
		for i := range x {
			x[i] += alpha*ph[i] + omega*sh[i]
			e := s[i] + negOmega*t[i]
			r[i] = e
			p0 += e * e
			p1 += rt[i] * e
		}
		rr += p0
		rtr += p1
	}
	ops.Add(8 * int64(len(xv)))
	return rr, rtr
}
