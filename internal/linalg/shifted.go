package linalg

import "math"

// ShiftedOperator maintains M = I - s*A for a fixed square A across many
// values of the shift s. The Rosenbrock integrator needs exactly this: the
// stage matrix I - gamma*tau*J shares J's sparsity pattern (plus any
// structurally missing diagonal entries), so the merged pattern can be
// built once and every step-size change only rewrites the value array in
// place — O(nnz) data movement instead of a full Builder assembly.
//
// The operator assumes A's values do not change between Update calls (the
// paper's problem is linear, so J is constant); call Invalidate after
// mutating A.
type ShiftedOperator struct {
	a *CSR
	m *CSR

	// apos[p] is the index into a.Val feeding m.Val[p], or -1 for a
	// diagonal entry that is structurally missing in A.
	apos []int
	// diag[r] is the index of row r's diagonal entry in m.Val.
	diag []int

	s     float64
	valid bool
}

// NewShiftedOperator builds the merged pattern of I and A once. The
// returned operator's matrix holds no meaningful values until Update is
// called.
func NewShiftedOperator(a *CSR) *ShiftedOperator {
	if a.Rows != a.Cols {
		panic("linalg: ShiftedOperator needs a square matrix")
	}
	n := a.Rows
	o := &ShiftedOperator{a: a, diag: make([]int, n)}
	m := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	// First pass: count entries per row (A's row plus one for a missing
	// diagonal) to size the arrays exactly.
	nnz := 0
	for r := 0; r < n; r++ {
		rowN := a.RowPtr[r+1] - a.RowPtr[r]
		hasDiag := false
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			if a.ColIdx[k] == r {
				hasDiag = true
				break
			}
		}
		if !hasDiag {
			rowN++
		}
		nnz += rowN
	}
	m.ColIdx = make([]int, 0, nnz)
	m.Val = make([]float64, nnz)
	o.apos = make([]int, 0, nnz)
	// Second pass: merge the (sorted) row of A with the diagonal.
	for r := 0; r < n; r++ {
		hasDiag := false
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			c := a.ColIdx[k]
			if !hasDiag && c > r {
				// Insert the structurally missing diagonal before the
				// first super-diagonal entry.
				o.diag[r] = len(m.ColIdx)
				m.ColIdx = append(m.ColIdx, r)
				o.apos = append(o.apos, -1)
				hasDiag = true
			}
			if c == r {
				o.diag[r] = len(m.ColIdx)
				hasDiag = true
			}
			m.ColIdx = append(m.ColIdx, c)
			o.apos = append(o.apos, k)
		}
		if !hasDiag {
			o.diag[r] = len(m.ColIdx)
			m.ColIdx = append(m.ColIdx, r)
			o.apos = append(o.apos, -1)
		}
		m.RowPtr[r+1] = len(m.ColIdx)
	}
	m.runs = findRuns(m)
	o.m = m
	return o
}

// Matrix returns the operator's matrix I - s*A for the last Update shift.
// The returned CSR is owned by the operator: its values are rewritten in
// place by the next Update.
func (o *ShiftedOperator) Matrix() *CSR { return o.m }

// A returns the source matrix the operator was built for.
func (o *ShiftedOperator) A() *CSR { return o.a }

// Shift returns the shift of the values currently held in Matrix (NaN
// before the first Update).
func (o *ShiftedOperator) Shift() float64 {
	if !o.valid {
		return math.NaN()
	}
	return o.s
}

// Invalidate forces the next Update to rewrite the values even if the
// shift is unchanged (needed only if A's values were mutated).
func (o *ShiftedOperator) Invalidate() { o.valid = false }

// Update sets M = I - s*A, rewriting only the value array in place, and
// returns M. When s equals the previous shift the matrix is already
// current and the call costs one compare; the Rosenbrock controller
// repeated a step size in none of the benchmark's workloads.
//
// The per-entry arithmetic matches CSR.ShiftedScaled exactly, so the
// resulting values are bit-identical to a from-scratch assembly.
//
//vetsparse:allocfree
func (o *ShiftedOperator) Update(s float64, ops *Ops) *CSR {
	if o.valid && s == o.s {
		return o.m
	}
	o.updateRange(s, 0, o.m.Rows)
	ops.Add(2 * int64(len(o.m.Val)))
	o.s, o.valid = s, true
	return o.m
}

// UpdateWith is Update with the value rewrite split across a Team by row
// ranges. Each stored entry is written exactly once with the serial
// arithmetic, so the values are bit-identical to Update's at any team size.
// A nil team (or one below the parallel cut-over) falls back to Update.
//
//vetsparse:allocfree
func (o *ShiftedOperator) UpdateWith(t *Team, s float64, ops *Ops) *CSR {
	if o.valid && s == o.s {
		return o.m
	}
	if t.seq() || o.m.Rows < ParMinPhase {
		return o.Update(s, ops)
	}
	t.so, t.alpha = o, s
	t.op = opShiftedUpdate
	t.splitRowsByNNZ(o.m)
	t.kick()
	ops.Add(2 * int64(len(o.m.Val)))
	o.s, o.valid = s, true
	return o.m
}

// updateRange rewrites the values of rows [r0, r1) for shift s.
//
//vetsparse:allocfree
func (o *ShiftedOperator) updateRange(s float64, r0, r1 int) {
	aval := o.a.Val
	for r := r0; r < r1; r++ {
		for p := o.m.RowPtr[r]; p < o.m.RowPtr[r+1]; p++ {
			k := o.apos[p]
			if k < 0 {
				o.m.Val[p] = 1
				continue
			}
			v := -s * aval[k]
			if p == o.diag[r] {
				v += 1
			}
			o.m.Val[p] = v
		}
	}
}
