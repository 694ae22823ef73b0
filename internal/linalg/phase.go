package linalg

import "fmt"

// ParMinPhase is the one serial/parallel cut-over: the smallest problem
// dimension (phase length, SpMV rows) worth waking the team for. Below it
// the caller runs the same kernel over the whole range itself — bit-for-bit
// the same result, so tests lower it to exercise the team on small problems.
// Calibrate replaces the default with the host's measured break-even (and
// pushes it out of reach on hosts that cannot run team members in parallel).
var ParMinPhase = defParMinPhase

// phaseOp selects one step of a fused-phase micro-program.
type phaseOp uint8

const (
	phCopy phaseOp = iota
	phSub
	phAXPY
	phAXPYTo
	phScaleTo
	phSpMV
	phDot
	phWRMS
	phDir
	phSStep
	phXR
)

// phaseStep is one op of a micro-program. Operands are bound at build
// time; scalar operands are bound as pointers so the caller can update
// them between dispatches without rebuilding the plan.
type phaseStep struct {
	op   phaseOp
	dst  Vector
	x, y Vector
	ex   [4]Vector // further operands of the fused steps, by position
	m    *CSR
	a, b *float64
	slot int
}

// Phase is a fused kernel micro-program: a short sequence of vector ops,
// SpMV steps and chunked reductions that one Team dispatch executes end to
// end, instead of paying a wake/park round-trip per op. Workers own
// chunk-aligned index ranges, so an elementwise step and a following
// reduction read exactly the elements the same worker just wrote. A phase
// holds no synchronization point: the one step that reads outside its own
// range, SpMV reading the whole input vector, may only read a vector no
// earlier step of the phase writes (mulVecDot panics on a plan that would),
// so every cross-range read crosses a dispatch boundary.
//
// Determinism is structural: one interpreter, exec, holds the only copy of
// every step's arithmetic. A team worker runs it over its chunk-aligned
// range; a nil, closed or single team, or a phase below ParMinPhase, runs
// the same function over [0, n). Elementwise steps compute each element
// independently of the range it arrives in, and reductions — steps of their
// own or riding the step that writes their operand — fill the fixed
// redChunk partials Vector.Dot folds in chunk order, each chunk from a
// fresh +0, so any split of the range produces the same bits.
//
// A Phase is built with Reset and builder calls (backing arrays are reused,
// so rebuilding allocates nothing), dispatched many times, and rebound to
// other operands in place (rebind). It is owned by one goroutine and one
// Team at a time.
type Phase struct {
	steps []phaseStep
	n     int
	nch   int
	flops int64 // flop charge of one run

	// part holds the two reduction slots, so a phase can carry two
	// independent reductions.
	part [2][]float64
}

// Reset clears the program and binds it to length-n vectors. The step and
// partial backing arrays are kept, so rebuilding a plan of the same shape
// allocates nothing.
func (p *Phase) Reset(n int) {
	p.steps = p.steps[:0]
	p.n = n
	p.nch = (n + redChunk - 1) / redChunk
	p.flops = 0
}

// rebind points every operand bound to from[j] at to[j], both pairs in one
// pass so that swapped vectors stay swapped: how a plan built for one
// solve's x and b serves the next one's.
func (p *Phase) rebind(from, to [2]Vector) {
	for i := range p.steps {
		st := &p.steps[i]
		for _, v := range [...]*Vector{&st.dst, &st.x, &st.y, &st.ex[0], &st.ex[1], &st.ex[2], &st.ex[3]} {
			for j, f := range from {
				if same(*v, f) {
					*v = p.check(to[j])
					break
				}
			}
		}
	}
}

// Len returns the number of steps in the program.
func (p *Phase) Len() int { return len(p.steps) }

// Flops returns the flop charge of one run of the program.
func (p *Phase) Flops() int64 { return p.flops }

func (p *Phase) check(v Vector) Vector {
	if len(v) != p.n {
		panic(fmt.Sprintf("linalg: phase operand length %d != %d", len(v), p.n))
	}
	return v
}

func (p *Phase) checkSlot(slot int) int {
	if slot != 0 && slot != 1 {
		panic(fmt.Sprintf("linalg: phase reduction slot %d out of range", slot))
	}
	p.part[slot] = grow(p.part[slot], p.nch)
	return slot
}

// same reports whether a and b are the same vector (the same first
// element), the identity rebind and the write check go by.
func same(a, b Vector) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// writes reports whether the step stores into v: its dst, and the xrStep's
// r beside it.
func (st *phaseStep) writes(v Vector) bool {
	return same(st.dst, v) || (st.op == phXR && same(st.ex[0], v))
}

// Copy appends dst = src.
func (p *Phase) Copy(dst, src Vector) {
	p.steps = append(p.steps, phaseStep{op: phCopy, dst: p.check(dst), x: p.check(src)})
}

// Sub appends dst = a - b (dst may alias either operand).
func (p *Phase) Sub(dst, a, b Vector) {
	p.steps = append(p.steps, phaseStep{op: phSub, dst: p.check(dst), x: p.check(a), y: p.check(b)})
	p.flops += int64(p.n)
}

// AXPY appends y += a*x.
func (p *Phase) AXPY(y Vector, a *float64, x Vector) {
	p.steps = append(p.steps, phaseStep{op: phAXPY, dst: p.check(y), x: p.check(x), a: a})
	p.flops += 2 * int64(p.n)
}

// AXPYTo appends dst = y + a*x (dst may alias y or x).
func (p *Phase) AXPYTo(dst, y Vector, a *float64, x Vector) {
	p.steps = append(p.steps, phaseStep{op: phAXPYTo, dst: p.check(dst), y: p.check(y), x: p.check(x), a: a})
	p.flops += 2 * int64(p.n)
}

// ScaleTo appends dst = a*x (dst may alias x).
func (p *Phase) ScaleTo(dst Vector, a *float64, x Vector) {
	p.steps = append(p.steps, phaseStep{op: phScaleTo, dst: p.check(dst), x: p.check(x), a: a})
	p.flops += int64(p.n)
}

// MulVec appends y = m*x. m must be square of the phase dimension; the
// rows are split exactly like the vector elements (chunk-aligned), so
// later reductions over y read what the same worker wrote. A row's dot
// product reads the whole of x, so x must not be a vector an earlier step
// of the phase writes: the product reads its input across ranges, and only
// a dispatch boundary orders that read after every worker's write.
func (p *Phase) MulVec(m *CSR, y, x Vector) { p.mulVecDot(m, y, x, nil, nil) }

// mulVecDot appends y = m*x fused with the reductions <y, u0> into slot 0
// and <y, u1> into slot 1, filled in the sweep that writes y (nil: not
// bound; u1 needs u0; either may be y itself). It panics when an earlier
// step writes x (see MulVec).
func (p *Phase) mulVecDot(m *CSR, y, x, u0, u1 Vector) {
	if m.Rows != p.n || m.Cols != p.n {
		panic(fmt.Sprintf("linalg: phase SpMV dims %dx%d != %d", m.Rows, m.Cols, p.n))
	}
	for i := range p.steps {
		if p.steps[i].writes(x) {
			panic(fmt.Sprintf("linalg: phase SpMV reads the vector step %d writes", i))
		}
	}
	st := phaseStep{op: phSpMV, dst: p.check(y), x: p.check(x), m: m}
	p.flops += 2 * int64(m.NNZ())
	for slot, u := range [...]Vector{u0, u1} {
		if u != nil {
			st.ex[p.checkSlot(slot)] = p.check(u)
			p.flops += 2 * int64(p.n)
		}
	}
	p.steps = append(p.steps, st)
}

// dirStep appends the BiCGStab direction step pv = r + beta*(pv - omega*v).
func (p *Phase) dirStep(pv, r, v Vector, beta, omega *float64) {
	p.steps = append(p.steps, phaseStep{op: phDir, dst: p.check(pv), x: p.check(r), y: p.check(v), a: beta, b: omega})
	p.flops += 4 * int64(p.n)
}

// sStep appends s = r + a*v fused with <s, s> into slot 0 (s may alias r
// or v).
func (p *Phase) sStep(s, r Vector, a *float64, v Vector) {
	p.checkSlot(0)
	p.steps = append(p.steps, phaseStep{op: phSStep, dst: p.check(s), x: p.check(r), y: p.check(v), a: a})
	p.flops += 4 * int64(p.n)
}

// xrStep appends the BiCGStab iteration tail x += alpha*ph + omega*sh,
// r = s - omega*t, fused with <r, r> into slot 0 and <rt, r> into slot 1.
func (p *Phase) xrStep(x Vector, alpha *float64, ph Vector, omega *float64, sh, r, s, t, rt Vector) {
	p.checkSlot(0)
	p.checkSlot(1)
	p.steps = append(p.steps, phaseStep{op: phXR, dst: p.check(x), x: p.check(ph), y: p.check(sh), a: alpha, b: omega,
		ex: [4]Vector{p.check(r), p.check(s), p.check(t), p.check(rt)}})
	p.flops += 10 * int64(p.n)
}

// Dot appends the chunked partial fill of a·b into reduction slot 0 or 1;
// the caller reads the result with Fold after the dispatch.
func (p *Phase) Dot(slot int, a, b Vector) {
	p.steps = append(p.steps, phaseStep{op: phDot, slot: p.checkSlot(slot), x: p.check(a), y: p.check(b)})
	p.flops += 2 * int64(p.n)
}

// WRMS appends the chunked partial fill of the weighted squared-error sum
// of v against ref into a reduction slot: Fold(slot) afterwards is the s of
// Vector.WRMSNorm, i.e. the norm is sqrt(Fold(slot)/n).
func (p *Phase) WRMS(slot int, v, ref Vector, atol, rtol *float64) {
	p.steps = append(p.steps, phaseStep{op: phWRMS, slot: p.checkSlot(slot), x: p.check(v), y: p.check(ref), a: atol, b: rtol})
	p.flops += 5 * int64(p.n)
}

// Fold returns the ordered chunk fold of a reduction slot — exactly the
// sum the serial Vector.Dot / WRMSNorm accumulates, independent of which
// worker filled which chunk.
//
//vetsparse:allocfree
func (p *Phase) Fold(slot int) float64 {
	s := 0.0
	for _, q := range p.part[slot][:p.nch] {
		s += q
	}
	return s
}

// exec interprets the program over [lo, hi), one worker's range or the
// whole. lo must be chunk-aligned; reductions fill exactly the chunks the
// range covers, so the union over a team is every chunk, each written once.
//
//vetsparse:allocfree
func (p *Phase) exec(lo, hi int) {
	for si := range p.steps {
		st := &p.steps[si]
		switch st.op {
		case phCopy:
			copy(st.dst[lo:hi], st.x[lo:hi])
		case phSub:
			subRange(st.dst, st.x, st.y, lo, hi)
		case phAXPY:
			axpyRange(st.dst, *st.a, st.x, lo, hi)
		case phAXPYTo:
			axpyToRange(st.dst, st.y, *st.a, st.x, lo, hi)
		case phScaleTo:
			scaleToRange(st.dst, *st.a, st.x, lo, hi)
		case phSpMV:
			st.m.mulVecRange(st.dst, st.x, st.ex[0], st.ex[1], p.part[0], p.part[1], lo, hi)
		case phDot:
			dotChunks(p.part[st.slot], st.x, st.y, lo, hi)
		case phWRMS:
			wrmsChunks(p.part[st.slot], st.x, st.y, *st.a, *st.b, lo, hi)
		case phDir:
			dirRange(st.dst, st.x, st.y, *st.a, *st.b, lo, hi)
		case phSStep:
			sStepChunks(p.part[0], st.dst, st.x, *st.a, st.y, lo, hi)
		case phXR:
			xrChunks(p.part[0], p.part[1], st.dst, *st.a, st.x, *st.b, st.y, st.ex[0], st.ex[1], st.ex[2], st.ex[3], lo, hi)
		}
	}
}

// The elementwise range kernels. Each cuts its operands to [lo, hi) once,
// which lets the compiler drop the per-element bounds checks. They are out
// of line and the ones an iteration runs are unrolled by four, for the same
// reason: a loop of a handful of instructions is bound by instruction fetch,
// not arithmetic, and on the benchmark host it runs 1.7x slower when the
// linker happens to lay it across a 64-byte line. Inlined into exec's two
// kilobytes of switch, every one of them shared the placement of that one
// body — 15 % of a whole solve on systems of a hundred unknowns, decided by
// an unrelated edit. Four elements a trip pay the straddle once per four
// and make the placement irrelevant; each element is still computed by the
// same expression, so the bits are too.

//go:noinline
//vetsparse:allocfree
func dirRange(pv, r, v Vector, beta, omega float64, lo, hi int) {
	pv = pv[lo:hi]
	r, v = r[lo:hi][:len(pv)], v[lo:hi][:len(pv)]
	i := 0
	for ; i+4 <= len(pv); i += 4 {
		p, r, v := pv[i:i+4:i+4], r[i:i+4:i+4], v[i:i+4:i+4]
		p[0], p[1] = r[0]+beta*(p[0]-omega*v[0]), r[1]+beta*(p[1]-omega*v[1])
		p[2], p[3] = r[2]+beta*(p[2]-omega*v[2]), r[3]+beta*(p[3]-omega*v[3])
	}
	for ; i < len(pv); i++ {
		pv[i] = r[i] + beta*(pv[i]-omega*v[i])
	}
}

//go:noinline
//vetsparse:allocfree
func subRange(dst, a, b Vector, lo, hi int) {
	dst = dst[lo:hi]
	a, b = a[lo:hi][:len(dst)], b[lo:hi][:len(dst)]
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

//go:noinline
//vetsparse:allocfree
func axpyRange(y Vector, a float64, x Vector, lo, hi int) {
	y = y[lo:hi]
	x = x[lo:hi][:len(y)]
	i := 0
	for ; i+4 <= len(y); i += 4 {
		o, x := y[i:i+4:i+4], x[i:i+4:i+4]
		o[0], o[1], o[2], o[3] = o[0]+a*x[0], o[1]+a*x[1], o[2]+a*x[2], o[3]+a*x[3]
	}
	for ; i < len(y); i++ {
		y[i] += a * x[i]
	}
}

//go:noinline
//vetsparse:allocfree
func axpyToRange(dst, y Vector, a float64, x Vector, lo, hi int) {
	dst = dst[lo:hi]
	y, x = y[lo:hi][:len(dst)], x[lo:hi][:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		o, y, x := dst[i:i+4:i+4], y[i:i+4:i+4], x[i:i+4:i+4]
		o[0], o[1], o[2], o[3] = y[0]+a*x[0], y[1]+a*x[1], y[2]+a*x[2], y[3]+a*x[3]
	}
	for ; i < len(dst); i++ {
		dst[i] = y[i] + a*x[i]
	}
}

//go:noinline
//vetsparse:allocfree
func scaleToRange(dst Vector, a float64, x Vector, lo, hi int) {
	dst = dst[lo:hi]
	x = x[lo:hi][:len(dst)]
	for i := range dst {
		dst[i] = a * x[i]
	}
}

// The fused reduction kernels. Like dotChunks they fill partial[c] for every
// chunk that starts in [lo, hi) — lo chunk-aligned — from a fresh +0
// accumulator fed one product per element in index order, each product of
// the element the same trip has just written: the bits of the elementwise
// step followed by dotChunks, in one sweep. The ordered sum's chain of
// dependent adds bounds these loops, so they are not unrolled.

//go:noinline
//vetsparse:allocfree
func sStepChunks(partial []float64, sv, rv Vector, a float64, vv Vector, lo, hi int) {
	for ; lo < hi; lo += redChunk {
		end := min(lo+redChunk, hi)
		s := sv[lo:end]
		r, v := rv[lo:end][:len(s)], vv[lo:end][:len(s)]
		p := 0.0
		for i := range s {
			e := r[i] + a*v[i]
			s[i] = e
			p += e * e
		}
		partial[lo/redChunk] = p
	}
}

//go:noinline
//vetsparse:allocfree
func xrChunks(part0, part1 []float64, xv Vector, alpha float64, phv Vector, omega float64, shv, rv, sv, tv, rtv Vector, lo, hi int) {
	negOmega := -omega
	for ; lo < hi; lo += redChunk {
		end := min(lo+redChunk, hi)
		x := xv[lo:end]
		ph, sh := phv[lo:end][:len(x)], shv[lo:end][:len(x)]
		r, s := rv[lo:end][:len(x)], sv[lo:end][:len(x)]
		t, rt := tv[lo:end][:len(x)], rtv[lo:end][:len(x)]
		p0, p1 := 0.0, 0.0
		for i := range x {
			x[i] += alpha*ph[i] + omega*sh[i]
			e := s[i] + negOmega*t[i]
			r[i] = e
			p0 += e * e
			p1 += rt[i] * e
		}
		part0[lo/redChunk], part1[lo/redChunk] = p0, p1
	}
}
