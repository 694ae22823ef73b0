package linalg

// The four-lane vector kernels of kernels_amd64.s, which the Vector methods
// and BiCGStab's kernels call in place of their Go loops where useLanes is
// set. Each takes its operands as pointers to their first elements and the
// length n >= 1 of all of them, which its caller has cut them to; see the
// Go kernel named in each comment for the expression and the aliasing.

// axpyLanes is Vector.AXPY's loop: v += a*x.
//
//go:noescape
func axpyLanes(v, x *float64, n int, a float64)

// setAXPYLanes is Vector.SetAXPY's loop: v = y + a*x.
//
//go:noescape
func setAXPYLanes(v, y, x *float64, n int, a float64)

// setScaledLanes is Vector.SetScaled's loop: v = a*x.
//
//go:noescape
func setScaledLanes(v, x *float64, n int, a float64)

// subLanes is Vector.Sub's loop: v = a - b.
//
//go:noescape
func subLanes(v, a, b *float64, n int)

// linCombLanes is Vector.SetLinComb's loop for 2 to 4 terms.
//
//go:noescape
func linCombLanes(v *float64, w *[4]float64, x *[4]*float64, terms, n int)

// dirRangeLanes is dirRange's loop.
//
//go:noescape
func dirRangeLanes(pv, r, v *float64, n int, beta, omega float64)

// xrLanes is one chunk of xrChunks, returning the chunk's two partials.
//
//go:noescape
func xrLanes(x, ph, sh, r, s, t, rt *float64, n int, alpha, omega, negOmega float64) (rr, rtr float64)

// axpbyWRMSLanes is one chunk of Vector.SetAXPBYWRMS, returning the chunk's
// partial sum of squares.
//
//go:noescape
func axpbyWRMSLanes(v, y, x, z *float64, n int, a, b, c, atol, rtol float64) float64
