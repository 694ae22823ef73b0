package linalg

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomSquare builds a random sparse square matrix through the Builder.
// diagProb controls how often a row gets an explicit diagonal entry, so
// structurally missing diagonals are exercised.
func randomSquare(rng *rand.Rand, n int, density, diagProb float64) *CSR {
	b := NewBuilder(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c == r {
				if rng.Float64() < diagProb {
					b.Add(r, c, rng.NormFloat64())
				}
				continue
			}
			if rng.Float64() < density {
				b.Add(r, c, rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

func sameCSR(t *testing.T, want, got *CSR) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("dims: want %dx%d, got %dx%d", want.Rows, want.Cols, got.Rows, got.Cols)
	}
	if len(want.val) != len(got.val) {
		t.Fatalf("nnz: want %d, got %d", len(want.val), len(got.val))
	}
	for i := range want.rowPtr {
		if want.rowPtr[i] != got.rowPtr[i] {
			t.Fatalf("RowPtr[%d]: want %d, got %d", i, want.rowPtr[i], got.rowPtr[i])
		}
	}
	for i := range want.colIdx {
		if want.colIdx[i] != got.colIdx[i] {
			t.Fatalf("ColIdx[%d]: want %d, got %d", i, want.colIdx[i], got.colIdx[i])
		}
	}
	for i := range want.val {
		// Bit-identical, not just close: the in-place update must perform
		// exactly the arithmetic of the contract.
		if want.val[i] != got.val[i] {
			t.Fatalf("Val[%d]: want %v, got %v (bit mismatch)", i, want.val[i], got.val[i])
		}
	}
}

// scaledWant is the contract of Update(s) on a: ShiftedScaled's pattern, the
// off-diagonals -a_ij, and the diagonal 1/s - a_ii (1/s where a stores none).
func scaledWant(a *CSR, s float64) *CSR {
	want := a.ShiftedScaled(s)
	want.setVals(func(val []float64) {
		for r := 0; r < want.Rows; r++ {
			for p := want.rowPtr[r]; p < want.rowPtr[r+1]; p++ {
				c := want.colIdx[p]
				val[p] = -a.At(r, c)
				if c == r {
					val[p] = 1/s - a.At(r, r)
				}
			}
		}
	})
	return want
}

// TestShiftedOperatorMatchesShiftedScaled asserts that Update(s) holds
// ShiftedScaled(s) divided by s: the same pattern, the values of the
// contract bit for bit, and s times them ShiftedScaled's to rounding — on
// randomized sparsity patterns including rows with a structurally missing
// diagonal, across repeated shift changes and the skip-if-unchanged path.
func TestShiftedOperatorMatchesShiftedScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(40)
		a := randomSquare(rng, n, 0.15, 0.6)
		op := NewShiftedOperator(a)
		for _, s := range []float64{1, -0.75, 1e-9, rng.NormFloat64(), 3.5e4} {
			got := op.Update(s, nil)
			sameCSR(t, scaledWant(a, s), got)
			unscaled := a.ShiftedScaled(s)
			for p, v := range unscaled.val {
				if sv := s * got.val[p]; math.Abs(sv-v) > 1e-15*(1+math.Abs(v)) {
					t.Fatalf("s=%g: s*Val[%d] = %v, ShiftedScaled %v", s, p, sv, v)
				}
			}
			// Repeating the same shift must be a no-op that still holds
			// the correct values.
			again := op.Update(s, nil)
			if again != got {
				t.Fatal("Update with unchanged shift returned a different matrix")
			}
			sameCSR(t, scaledWant(a, s), again)
		}
	}
}

// TestShiftedOperatorMissingDiagonal pins the all-off-diagonal corner: no
// row has a stored diagonal, so every diagonal entry of the matrix is 1/s
// exactly; and a zero shift, which has no scaled form, panics by name.
func TestShiftedOperatorMissingDiagonal(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Add(0, 1, 2.0)
	b.Add(1, 2, -3.0)
	b.Add(2, 0, 4.0)
	a := b.Build()
	op := NewShiftedOperator(a)
	for _, s := range []float64{0.5, -2, 0.5} {
		sameCSR(t, scaledWant(a, s), op.Update(s, nil))
		for r := 0; r < 3; r++ {
			if got := op.Matrix().At(r, r); got != 1/s {
				t.Fatalf("s=%g: diag %d = %v, want %v", s, r, got, 1/s)
			}
		}
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "Update(0)") {
			t.Errorf("Update(0) panicked with %q, want a message naming it", msg)
		}
	}()
	op.Update(0, nil)
}

// TestShiftedOperatorOps asserts a shift change is accounted as the n
// diagonal flops, a repeated shift as none, and that after A moved under the
// operator an Invalidate makes the next Update a fresh operator's first, in
// values and in flops.
func TestShiftedOperatorOps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSquare(rng, 20, 0.2, 0.5)
	n := int64(a.Rows)
	op := NewShiftedOperator(a)
	var ops Ops
	op.Update(0.25, &ops)
	if ops.Flops != n {
		t.Fatalf("update flops = %d, want %d", ops.Flops, n)
	}
	op.Update(0.25, &ops)
	if ops.Flops != n {
		t.Fatalf("skipped update added flops: %d, want %d", ops.Flops, n)
	}
	op.Update(0.5, &ops)
	if ops.Flops != 2*n {
		t.Fatalf("second shift: flops = %d, want %d", ops.Flops, 2*n)
	}
	a.setVals(func(val []float64) {
		for i := range val {
			val[i] *= 1.5
		}
	})
	op.Invalidate()
	var warm, fresh Ops
	got := op.Update(0.5, &warm)
	sameCSR(t, NewShiftedOperator(a).Update(0.5, &fresh), got)
	sameCSR(t, scaledWant(a, 0.5), got)
	if warm != fresh {
		t.Fatalf("invalidated update flops = %d, a fresh operator's %d", warm.Flops, fresh.Flops)
	}
}
