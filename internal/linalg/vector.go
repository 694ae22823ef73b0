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
	i := 0
	for ; i+4 <= len(v); i += 4 {
		o, x := v[i:i+4:i+4], x[i:i+4:i+4]
		o[0], o[1], o[2], o[3] = o[0]+a*x[0], o[1]+a*x[1], o[2]+a*x[2], o[3]+a*x[3]
	}
	for ; i < len(v); i++ {
		v[i] += a * x[i]
	}
	ops.Add(2 * int64(len(v)))
}

// SetAXPY computes v = y + a*x (v may alias y or x).
//
//go:noinline
//vetsparse:allocfree
func (v Vector) SetAXPY(y Vector, a float64, x Vector, ops *Ops) {
	y, x = y[:len(v)], x[:len(v)]
	i := 0
	for ; i+4 <= len(v); i += 4 {
		o, y, x := v[i:i+4:i+4], y[i:i+4:i+4], x[i:i+4:i+4]
		o[0], o[1], o[2], o[3] = y[0]+a*x[0], y[1]+a*x[1], y[2]+a*x[2], y[3]+a*x[3]
	}
	for ; i < len(v); i++ {
		v[i] = y[i] + a*x[i]
	}
	ops.Add(2 * int64(len(v)))
}

// SetScaled computes v = a*x (v may be x: in place, v *= a).
//
//go:noinline
//vetsparse:allocfree
func (v Vector) SetScaled(a float64, x Vector, ops *Ops) {
	x = x[:len(v)]
	for i := range v {
		v[i] = a * x[i]
	}
	ops.Add(int64(len(v)))
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
	for i := range v {
		v[i] = a[i] - b[i]
	}
	ops.Add(int64(len(v)))
}
