// Package linalg provides the sparse linear algebra used inside the
// sparse-grid solver's subsolve routine: dense vectors, compressed sparse
// row (CSR) matrices, a direct tridiagonal solver, and the Krylov solver
// for the (I - gamma*tau*J) systems of the Rosenbrock integrator: BiCGStab,
// preconditioned by direct solves along the grid lines or by ILU(0).
//
// All entry points optionally account floating-point work into an Ops
// counter so the cluster simulator's work model can be calibrated against
// the real code.
package linalg

import (
	"fmt"
	"math"
)

// Ops accumulates floating-point operation counts. A nil *Ops is legal
// everywhere and disables counting.
type Ops struct {
	Flops int64
}

// Add accounts n floating-point operations.
//
//vetsparse:allocfree
func (o *Ops) Add(n int64) {
	if o != nil {
		o.Flops += n
	}
}

// Vector is a dense vector of float64.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Fill sets every component to s.
//
//vetsparse:allocfree
func (v Vector) Fill(s float64) {
	for i := range v {
		v[i] = s
	}
}

// AXPY computes v += a*x.
//
//go:noinline
//vetsparse:allocfree
func (v Vector) AXPY(a float64, x Vector, ops *Ops) {
	if len(v) != len(x) {
		panic(fmt.Sprintf("linalg: axpy length mismatch %d != %d", len(v), len(x)))
	}
	x = x[:len(v)]
	ops.Add(2 * int64(len(v)))
	if useLanes && len(v) > 0 {
		axpyLanes(&v[0], &x[0], len(v), a)
		return
	}
	i := 0
	for ; i+4 <= len(v); i += 4 {
		o, x := v[i:i+4:i+4], x[i:i+4:i+4]
		o[0], o[1], o[2], o[3] = o[0]+a*x[0], o[1]+a*x[1], o[2]+a*x[2], o[3]+a*x[3]
	}
	for ; i < len(v); i++ {
		v[i] += a * x[i]
	}
}

// SetAXPY computes v = y + a*x (v may alias y or x).
//
//go:noinline
//vetsparse:allocfree
func (v Vector) SetAXPY(y Vector, a float64, x Vector, ops *Ops) {
	y, x = y[:len(v)], x[:len(v)]
	ops.Add(2 * int64(len(v)))
	if useLanes && len(v) > 0 {
		setAXPYLanes(&v[0], &y[0], &x[0], len(v), a)
		return
	}
	i := 0
	for ; i+4 <= len(v); i += 4 {
		o, y, x := v[i:i+4:i+4], y[i:i+4:i+4], x[i:i+4:i+4]
		o[0], o[1], o[2], o[3] = y[0]+a*x[0], y[1]+a*x[1], y[2]+a*x[2], y[3]+a*x[3]
	}
	for ; i < len(v); i++ {
		v[i] = y[i] + a*x[i]
	}
}

// SetLinComb computes v = w[0]*x[0] + w[1]*x[1] + … in one sweep, summed
// left to right: bit for bit SetScaled(w[0], x[0]) followed by one AXPY per
// further term, and charged as they are. v may alias x[0] but no later
// term. Two to four terms are unrolled; one is SetScaled, and more take
// the multi-pass chain.
//
//go:noinline
//vetsparse:allocfree
func (v Vector) SetLinComb(w []float64, x []Vector, ops *Ops) {
	if len(w) != len(x) || len(w) == 0 {
		panic(fmt.Sprintf("linalg: lincomb of %d weights and %d vectors", len(w), len(x)))
	}
	n := len(v)
	if terms := len(w); useLanes && terms <= 4 && terms >= 2 && n > 0 {
		var wl [4]float64
		var xl [4]*float64
		for j := range w {
			wl[j], xl[j] = w[j], &x[j][:n][0]
		}
		linCombLanes(&v[0], &wl, &xl, terms, n)
		ops.Add(int64(2*terms-1) * int64(n))
		return
	}
	i := 0
	switch len(w) {
	case 2:
		w0, w1, x0, x1 := w[0], w[1], x[0][:n], x[1][:n]
		for ; i+4 <= n; i += 4 {
			o, a, b := v[i:i+4:i+4], x0[i:i+4:i+4], x1[i:i+4:i+4]
			o[0], o[1], o[2], o[3] = w0*a[0]+w1*b[0], w0*a[1]+w1*b[1], w0*a[2]+w1*b[2], w0*a[3]+w1*b[3]
		}
		for ; i < n; i++ {
			v[i] = w0*x0[i] + w1*x1[i]
		}
	case 3:
		w0, w1, w2, x0, x1, x2 := w[0], w[1], w[2], x[0][:n], x[1][:n], x[2][:n]
		for ; i+4 <= n; i += 4 {
			o, a, b, c := v[i:i+4:i+4], x0[i:i+4:i+4], x1[i:i+4:i+4], x2[i:i+4:i+4]
			o[0], o[1] = w0*a[0]+w1*b[0]+w2*c[0], w0*a[1]+w1*b[1]+w2*c[1]
			o[2], o[3] = w0*a[2]+w1*b[2]+w2*c[2], w0*a[3]+w1*b[3]+w2*c[3]
		}
		for ; i < n; i++ {
			v[i] = w0*x0[i] + w1*x1[i] + w2*x2[i]
		}
	case 4:
		w0, w1, w2, w3, x0, x1, x2, x3 := w[0], w[1], w[2], w[3], x[0][:n], x[1][:n], x[2][:n], x[3][:n]
		for ; i+4 <= n; i += 4 {
			o, a, b, c, d := v[i:i+4:i+4], x0[i:i+4:i+4], x1[i:i+4:i+4], x2[i:i+4:i+4], x3[i:i+4:i+4]
			o[0], o[1] = w0*a[0]+w1*b[0]+w2*c[0]+w3*d[0], w0*a[1]+w1*b[1]+w2*c[1]+w3*d[1]
			o[2], o[3] = w0*a[2]+w1*b[2]+w2*c[2]+w3*d[2], w0*a[3]+w1*b[3]+w2*c[3]+w3*d[3]
		}
		for ; i < n; i++ {
			v[i] = w0*x0[i] + w1*x1[i] + w2*x2[i] + w3*x3[i]
		}
	default:
		v.SetScaled(w[0], x[0], ops)
		for j := 1; j < len(w); j++ {
			v.AXPY(w[j], x[j], ops)
		}
		return
	}
	ops.Add(int64(2*len(w)-1) * int64(n))
}

// SetAXPBYWRMS computes v = y + a*x + b*z and, in the same chunk-ordered
// sweep, returns the WRMS norm of c*(x + 1*z) against y: bit for bit
// copy(v, y), v.AXPY(a, x), v.AXPY(b, z), e.SetAXPY(x, 1, z),
// e.SetScaled(c, e) and e.WRMSNorm(y, atol, rtol), and charged as those
// five kernels are, without the vector e. v may alias y. The Rosenbrock
// step writes its candidate solution and its embedded error estimate with
// it.
//
//go:noinline
//vetsparse:allocfree
func (v Vector) SetAXPBYWRMS(y Vector, a float64, x Vector, b float64, z Vector, c, atol, rtol float64, ops *Ops) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	y, x, z = y[:n], x[:n], z[:n]
	ops.Add(12 * int64(n))
	s := 0.0
	if useLanes {
		for lo := 0; lo < n; lo += redChunk {
			k := min(redChunk, n-lo)
			s += axpbyWRMSLanes(&v[lo], &y[lo], &x[lo], &z[lo], k, a, b, c, atol, rtol)
		}
		return math.Sqrt(s / float64(n))
	}
	for lo := 0; lo < n; lo += redChunk {
		hi := min(lo+redChunk, n)
		p := 0.0
		for i := lo; i < hi; i++ {
			yi, xi, zi := y[i], x[i], z[i]
			v[i] = yi + a*xi + b*zi
			e := c * (xi + zi) / (atol + rtol*math.Abs(yi))
			p += e * e
		}
		s += p
	}
	return math.Sqrt(s / float64(n))
}

// SetScaled computes v = a*x (v may be x: in place, v *= a).
//
//go:noinline
//vetsparse:allocfree
func (v Vector) SetScaled(a float64, x Vector, ops *Ops) {
	x = x[:len(v)]
	ops.Add(int64(len(v)))
	if useLanes && len(v) > 0 {
		setScaledLanes(&v[0], &x[0], len(v), a)
		return
	}
	i := 0
	for ; i+4 <= len(v); i += 4 {
		o, x := v[i:i+4:i+4], x[i:i+4:i+4]
		o[0], o[1], o[2], o[3] = a*x[0], a*x[1], a*x[2], a*x[3]
	}
	for ; i < len(v); i++ {
		v[i] = a * x[i]
	}
}

// Dot returns the inner product of v and x, summed through the fixed-chunk
// ordered reduction: per-chunk partials of redChunk elements folded in chunk
// order, the sum BiCGStab's reducing kernels reproduce bit for bit. Vectors
// shorter than one chunk reduce to the classic single running sum.
//
//vetsparse:allocfree
func (v Vector) Dot(x Vector, ops *Ops) float64 {
	if len(v) != len(x) {
		panic(fmt.Sprintf("linalg: dot length mismatch %d != %d", len(v), len(x)))
	}
	s := 0.0
	for lo := 0; lo < len(v); lo += redChunk {
		hi := lo + redChunk
		if hi > len(v) {
			hi = len(v)
		}
		p := 0.0
		for i := lo; i < hi; i++ {
			p += v[i] * x[i]
		}
		s += p
	}
	ops.Add(2 * int64(len(v)))
	return s
}

// Norm2 returns the Euclidean norm of v.
//
//vetsparse:allocfree
func (v Vector) Norm2(ops *Ops) float64 {
	return math.Sqrt(v.Dot(v, ops))
}

// NormInf returns the maximum absolute component of v.
//
//vetsparse:allocfree
func (v Vector) NormInf() float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// WRMSNorm returns the weighted root-mean-square norm used by the step-size
// controller: sqrt(mean((v_i / (atol + rtol*|ref_i|))^2)), summed like Dot
// through the fixed-chunk ordered reduction.
//
//vetsparse:allocfree
func (v Vector) WRMSNorm(ref Vector, atol, rtol float64, ops *Ops) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for lo := 0; lo < len(v); lo += redChunk {
		hi := lo + redChunk
		if hi > len(v) {
			hi = len(v)
		}
		p := 0.0
		for i := lo; i < hi; i++ {
			w := atol + rtol*math.Abs(ref[i])
			e := v[i] / w
			p += e * e
		}
		s += p
	}
	ops.Add(5 * int64(len(v)))
	return math.Sqrt(s / float64(len(v)))
}

// Sub computes v = a - b component-wise (v may alias either operand).
//
//go:noinline
//vetsparse:allocfree
func (v Vector) Sub(a, b Vector, ops *Ops) {
	a, b = a[:len(v)], b[:len(v)]
	ops.Add(int64(len(v)))
	if useLanes && len(v) > 0 {
		subLanes(&v[0], &a[0], &b[0], len(v))
		return
	}
	i := 0
	for ; i+4 <= len(v); i += 4 {
		o, a, b := v[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		o[0], o[1], o[2], o[3] = a[0]-b[0], a[1]-b[1], a[2]-b[2], a[3]-b[3]
	}
	for ; i < len(v); i++ {
		v[i] = a[i] - b[i]
	}
}
