//go:build !amd64

package linalg

// stencilLanes is false off amd64: every stencil multiplies in Go.
var stencilLanes = false

// laneMasks is nil: no kernel reads lane masks.
func laneMasks(mx int) []uint64 { return nil }

// mulStencilLanes is mulStencil where there is no vector kernel.
func mulStencilLanes(a *spmv, m *CSR, p0, p1 float64, r0, r1 int) (float64, float64) {
	return mulStencil(a, &m.st, p0, p1, r0, r1)
}
