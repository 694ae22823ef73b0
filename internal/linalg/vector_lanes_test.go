package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// vectorOperands is how many operand vectors a vector lane case may use:
// xrChunks' seven.
const vectorOperands = 7

// vectorCase is one way to call a vector kernel that has a lane twin: run
// calls it on the operands v (each of one length, the kernel writing the
// first) with the scalars c, aliased as the case's name says, and returns
// what it returns.
type vectorCase struct {
	name string
	run  func(v []Vector, c [4]float64) []float64
}

// vectorCases are every vector kernel with a lane twin, once without
// aliasing and once per alias its Go kernel documents.
var vectorCases = []vectorCase{
	{"AXPY", func(v []Vector, c [4]float64) []float64 { v[0].AXPY(c[0], v[1], nil); return nil }},
	{"SetAXPY", func(v []Vector, c [4]float64) []float64 { v[0].SetAXPY(v[1], c[0], v[2], nil); return nil }},
	{"SetAXPY v=y", func(v []Vector, c [4]float64) []float64 { v[0].SetAXPY(v[0], c[0], v[2], nil); return nil }},
	{"SetAXPY v=x", func(v []Vector, c [4]float64) []float64 { v[0].SetAXPY(v[1], c[0], v[0], nil); return nil }},
	{"SetScaled", func(v []Vector, c [4]float64) []float64 { v[0].SetScaled(c[0], v[1], nil); return nil }},
	{"SetScaled v=x", func(v []Vector, c [4]float64) []float64 { v[0].SetScaled(c[0], v[0], nil); return nil }},
	{"Sub", func(v []Vector, c [4]float64) []float64 { v[0].Sub(v[1], v[2], nil); return nil }},
	{"Sub v=a", func(v []Vector, c [4]float64) []float64 { v[0].Sub(v[0], v[2], nil); return nil }},
	{"Sub v=b", func(v []Vector, c [4]float64) []float64 { v[0].Sub(v[1], v[0], nil); return nil }},
	{"SetLinComb 2", func(v []Vector, c [4]float64) []float64 { v[0].SetLinComb(c[:2], v[1:3], nil); return nil }},
	{"SetLinComb 3", func(v []Vector, c [4]float64) []float64 { v[0].SetLinComb(c[:3], v[1:4], nil); return nil }},
	{"SetLinComb 4", func(v []Vector, c [4]float64) []float64 { v[0].SetLinComb(c[:4], v[1:5], nil); return nil }},
	{"SetLinComb 4 v=x[0]", func(v []Vector, c [4]float64) []float64 { v[0].SetLinComb(c[:4], v[0:4], nil); return nil }},
	{"SetAXPBYWRMS", func(v []Vector, c [4]float64) []float64 {
		return []float64{v[0].SetAXPBYWRMS(v[1], c[0], v[2], c[1], v[3], c[2], 1e-3, math.Abs(c[3]), nil)}
	}},
	{"SetAXPBYWRMS v=y", func(v []Vector, c [4]float64) []float64 {
		return []float64{v[0].SetAXPBYWRMS(v[0], c[0], v[2], c[1], v[3], c[2], 1e-3, math.Abs(c[3]), nil)}
	}},
	{"dirRange", func(v []Vector, c [4]float64) []float64 { dirRange(v[0], v[1], v[2], c[0], c[1], nil); return nil }},
	{"xrChunks", func(v []Vector, c [4]float64) []float64 {
		rr, rtr := xrChunks(v[0], c[0], v[1], c[1], v[2], v[3], v[4], v[5], v[6], nil)
		return []float64{rr, rtr}
	}},
}

// vectorProbes are the special operands the vector lane tests put in.
var vectorProbes = []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0}

// checkVectorLanes runs vc on copies of ops through the lane kernels and
// through the Go kernels, each operand inside poisoned guards, and
// requires the same bits in every operand, guards included, and in every
// result.
func checkVectorLanes(t *testing.T, vc vectorCase, ops []Vector, c [4]float64) {
	t.Helper()
	n, g := len(ops[0]), 4
	var bufs [2][]Vector
	var outs [2][]float64
	for k, lanes := range []bool{true, false} {
		views := make([]Vector, len(ops))
		for j, op := range ops {
			buf := NewVector(n + 2*g)
			for i := range buf {
				buf[i] = math.Float64frombits(0x7ff8dead0000beef)
			}
			copy(buf[g:], op)
			bufs[k] = append(bufs[k], buf)
			views[j] = buf[g : g+n : g+n]
		}
		useLanes = lanes
		outs[k] = vc.run(views, c)
	}
	useLanes = true
	for j := range ops {
		checkSameBits(t, fmt.Sprintf("%s n=%d operand %d", vc.name, n, j), bufs[0][j], bufs[1][j])
	}
	for j := range outs[1] {
		if !sameFloat(outs[0][j], outs[1][j]) {
			t.Fatalf("%s n=%d: result %d = %v, the Go kernel's %v", vc.name, n, j, outs[0][j], outs[1][j])
		}
	}
}

// vectorOps returns vectorOperands random operands n long, with probe (if
// not 0) at every stride-th element of the operand at, from offset off.
func vectorOps(rng *rand.Rand, n int, probe float64, at, off, stride int) []Vector {
	ops := make([]Vector, vectorOperands)
	for j := range ops {
		ops[j] = randVec(rng, n)
	}
	if probe != 0 || math.Signbit(probe) {
		for i := off; i < n; i += stride {
			ops[at][i] = probe
		}
	}
	return ops
}

// TestVectorLanesMatchGo runs every vector lane case through the lane
// kernels and through Go at lengths around a trip of four and around the
// reduction chunks, with random operands and with each probe in each
// operand at the elements of one lane, and requires the same bits.
func TestVectorLanesMatchGo(t *testing.T) {
	if !useLanes {
		t.Skip("no lane kernels on this host")
	}
	defer func() { useLanes = true }()
	rng := rand.New(rand.NewSource(67))
	c := [4]float64{0.71, -1.3, 0.37, 2.5e-2}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, redChunk - 1, redChunk, redChunk + 1, redChunk + 5, 3*redChunk + 3} {
		for _, vc := range vectorCases {
			checkVectorLanes(t, vc, vectorOps(rng, n, 0, 0, 0, 1), c)
			for _, probe := range vectorProbes {
				for at := 0; at < vectorOperands; at++ {
					checkVectorLanes(t, vc, vectorOps(rng, n, probe, at, at%4, 4), c)
				}
			}
		}
	}
}

// FuzzVectorLanes compares a vector lane case with its Go kernel on
// operands drawn from seed, lengths 0 to 3*redChunk+3, and scalars and
// probes from the fuzzer.
func FuzzVectorLanes(f *testing.F) {
	if !useLanes {
		f.Skip("no lane kernels on this host")
	}
	for k := range vectorCases {
		f.Add(uint8(k), uint16(k*37), int64(k), 0.71, -1.3, uint8(k), uint8(k))
	}
	f.Fuzz(func(t *testing.T, kernel uint8, n uint16, seed int64, c0, c1 float64, probe, at uint8) {
		defer func() { useLanes = true }()
		vc := vectorCases[int(kernel)%len(vectorCases)]
		rng := rand.New(rand.NewSource(seed))
		ops := vectorOps(rng, int(n)%(3*redChunk+4), vectorProbes[int(probe)%len(vectorProbes)], int(at)%vectorOperands, int(at)%5, 1+int(probe)%7)
		checkVectorLanes(t, vc, ops, [4]float64{c0, c1, 0.37, 2.5e-2})
	})
}
