// Package allocfixture exercises the //vetsparse:allocfree checks: each
// allocation-causing construct is rejected inside an annotated function,
// while the panic-argument and error-return cold paths, constant folding,
// pointer-shaped interface values and unannotated functions stay silent.
package allocfixture

import "fmt"

type vec []float64

// axpy is the shape of a real hot kernel: annotated and clean.
//
//vetsparse:allocfree
func axpy(y, x vec, a float64) {
	for i := range y {
		y[i] += a * x[i]
	}
}

// guarded panics on misuse; the panic argument is a cold path.
//
//vetsparse:allocfree
func guarded(y, x vec) {
	if len(y) != len(x) {
		panic(fmt.Sprintf("allocfixture: length mismatch %d != %d", len(y), len(x)))
	}
	copy(y, x)
}

// fallible allocates only while building its error result: a cold path.
//
//vetsparse:allocfree
func fallible(n int) error {
	if n < 0 {
		return fmt.Errorf("allocfixture: negative n %d", n)
	}
	return nil
}

// unannotated may allocate freely; the pass only checks annotations.
func unannotated(n int) []float64 {
	return make([]float64, n)
}

//vetsparse:allocfree
func badAppend(xs []int, v int) []int {
	xs = append(xs, v) // want `append may grow the backing array`
	return xs
}

//vetsparse:allocfree
func badMake(n int) []int {
	buf := make([]int, n) // want `make allocates`
	return buf
}

//vetsparse:allocfree
func badNew() *vec {
	p := new(vec) // want `new allocates`
	return p
}

//vetsparse:allocfree
func badClosure(n int) func() int {
	f := func() int { return n } // want `function literal allocates a closure`
	return f
}

//vetsparse:allocfree
func badFmt(x float64) {
	fmt.Println(x) // want `fmt\.Println allocates`
}

//vetsparse:allocfree
func badConcat(a, b string) string {
	s := a + b // want `non-constant string concatenation allocates`
	return s
}

const prefix = "solver."

// constConcat's concatenation folds at compile time: no allocation.
//
//vetsparse:allocfree
func constConcat() string {
	return prefix + "subsolve"
}

type sample struct{ a, b float64 }

//vetsparse:allocfree
func badMapLit() map[string]int {
	m := map[string]int{} // want `map literal allocates`
	return m
}

//vetsparse:allocfree
func badSliceLit() vec {
	v := vec{1, 2} // want `slice literal allocates`
	return v
}

//vetsparse:allocfree
func badAddrLit() *sample {
	s := &sample{a: 1} // want `&composite literal escapes to the heap`
	return s
}

func sink(v any) {}

//vetsparse:allocfree
func badBoxArg(x int) {
	sink(x) // want `passing int as interface`
}

// goodPtrArg passes a pointer, which fits the interface word directly.
//
//vetsparse:allocfree
func goodPtrArg(p *sample) {
	sink(p)
}

//vetsparse:allocfree
func badBoxAssign(x float64) {
	var v any
	v = x // want `assigning float64 to interface`
	_ = v
}

//vetsparse:allocfree
func badConvert(x int) any {
	v := any(x) // want `conversion to interface boxes int`
	return v
}

// planStep and plan model the fused-phase micro-program form: a pre-built
// step sequence a hot interpreter walks per dispatch.
type planStep struct {
	op   int
	x, y vec
}

type plan struct{ steps []planStep }

// execPlan is the shape of a fused-phase interpreter: annotated and clean —
// a switch over pre-bound steps touches no allocating construct.
//
//vetsparse:allocfree
func execPlan(p *plan, lo, hi int) {
	for i := range p.steps {
		st := &p.steps[i]
		switch st.op {
		case 0:
			copy(st.x[lo:hi], st.y[lo:hi])
		default:
			for j := lo; j < hi; j++ {
				st.x[j] += st.y[j]
			}
		}
	}
}

// badPlanExec grows the step list from inside an annotated hot path: plan
// building belongs in unannotated setup code, where append reusing the
// steps[:0] backing array is fine.
//
//vetsparse:allocfree
func badPlanExec(p *plan, x, y vec) {
	p.steps = append(p.steps, planStep{op: 0, x: x, y: y}) // want `append may grow the backing array`
}

// ring models the work-stealing deque's hot surface: owner push/pop at the
// back and thief steal at the front reuse the pre-grown backing array —
// annotated and clean.
type ring struct {
	buf        []int
	head, size int
}

//vetsparse:allocfree
func (r *ring) push(v int) bool {
	if r.size == len(r.buf) {
		return false // growing the ring belongs in unannotated setup code
	}
	r.buf[(r.head+r.size)%len(r.buf)] = v
	r.size++
	return true
}

//vetsparse:allocfree
func (r *ring) pop() (int, bool) {
	if r.size == 0 {
		return 0, false
	}
	r.size--
	return r.buf[(r.head+r.size)%len(r.buf)], true
}

//vetsparse:allocfree
func (r *ring) stealFront() (int, bool) {
	if r.size == 0 {
		return 0, false
	}
	v := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.size--
	return v, true
}

// badRingGrow grows the ring from inside an annotated hot path.
//
//vetsparse:allocfree
func badRingGrow(r *ring, v int) {
	r.buf = append(r.buf, v) // want `append may grow the backing array`
}

// runRows is the shape of a diagonal-run SpMV kernel: the shifted views of
// x are reslices of the caller's vector, so the kernel stays clean.
//
//vetsparse:allocfree
func runRows(y, v, x vec, o0, o1 int) {
	x0, x1 := x[o0:][:len(y)], x[o1:][:len(y)]
	for i := range y {
		s := 0.0 + v[0]*x0[i]
		s += v[1] * x1[i]
		y[i] = s
		v = v[2:]
	}
}

// badRunRows collects its shifted views in a slice built per call.
//
//vetsparse:allocfree
func badRunRows(y, v, x vec, off []int) {
	views := []vec{x[off[0]:], x[off[1]:]} // want `slice literal allocates`
	for i := range y {
		s := 0.0 + v[0]*views[0][i]
		s += v[1] * views[1][i]
		y[i] = s
		v = v[2:]
	}
}

// runRowsDots is the shape of a run kernel that reduces as it writes: the
// two dots of the output rows ride along in accumulators passed in and
// returned by value, so nothing escapes.
//
//vetsparse:allocfree
func runRowsDots(y, v, x0, x1, u0, u1 vec, p0, p1 float64) (float64, float64) {
	x0, x1, u0, u1 = x0[:len(y)], x1[:len(y)], u0[:len(y)], u1[:len(y)]
	for i := range y {
		s := 0.0 + v[0]*x0[i]
		s += v[1] * x1[i]
		y[i] = s
		p0 += s * u0[i]
		p1 += s * u1[i]
		v = v[2:]
	}
	return p0, p1
}

// badRunRowsDots returns its accumulators in a slice built per call.
//
//vetsparse:allocfree
func badRunRowsDots(y, v, x0, u0 vec) []float64 {
	acc := make([]float64, 2) // want `make allocates`
	for i := range y {
		s := 0.0 + v[i]*x0[i]
		y[i] = s
		acc[0] += s * u0[i]
	}
	return acc
}
