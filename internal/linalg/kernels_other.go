//go:build !amd64

package linalg

// Off amd64 useLanes is false and the Go kernels run: these are never
// called.

const noLanes = "linalg: no lane kernels"

func axpyLanes(v, x *float64, n int, a float64)                            { panic(noLanes) }
func setAXPYLanes(v, y, x *float64, n int, a float64)                      { panic(noLanes) }
func setScaledLanes(v, x *float64, n int, a float64)                       { panic(noLanes) }
func subLanes(v, a, b *float64, n int)                                     { panic(noLanes) }
func linCombLanes(v *float64, w *[4]float64, x *[4]*float64, terms, n int) { panic(noLanes) }
func dirRangeLanes(pv, r, v *float64, n int, beta, omega float64)          { panic(noLanes) }
func xrLanes(x, ph, sh, r, s, t, rt *float64, n int, alpha, omega, negOmega float64) (rr, rtr float64) {
	panic(noLanes)
}
func axpbyWRMSLanes(v, y, x, z *float64, n int, a, b, c, atol, rtol float64) float64 {
	panic(noLanes)
}

func (lf *lineFactor) sweepLanes(x, b Vector) { panic(noLanes) }
