//go:build !amd64

package linalg

// useLanes is false off amd64: every kernel runs in Go.
var useLanes = false

// laneMasks is nil: no kernel reads lane masks.
func laneMasks(mx int) []uint64 { return nil }

// mulStencilLanes is mulStencil where there is no vector kernel.
func mulStencilLanes(a *spmv, m *CSR, p0, p1 float64, r0, r1 int) (float64, float64) {
	return mulStencil(a, &m.st, p0, p1, r0, r1)
}
