package linalg

import (
	"runtime"
	"sync"
	"time"
)

// defParMinPhase is the hand-set default of the cut-over. Calibrate treats
// a cut-over still holding it as "not explicitly configured" and replaces
// it with a measured break-even; one the caller has changed is left alone.
const defParMinPhase = 4096

// knobCeiling is the "never parallelize" setting Calibrate installs on
// hosts that cannot run team members concurrently.
const knobCeiling = 1 << 30

// Calibration reports what Calibrate measured and the cut-over in effect
// afterwards.
type Calibration struct {
	// EffectiveProcs is min(GOMAXPROCS, NumCPU): the parallelism the
	// host actually delivers to a team.
	EffectiveProcs int
	// DispatchUs is the measured cost of one team wake/park round-trip
	// in microseconds (an empty body through Team.Run).
	DispatchUs float64
	// ElemNs is the measured serial per-element cost of an axpy-class
	// elementwise kernel in nanoseconds.
	ElemNs float64
	// Sequentialized reports that the host cannot run team members in
	// parallel, so the cut-over was pushed out of reach and the kernels
	// run on the caller regardless of team size — the
	// "sequentialize overparallelized code" outcome: coordination that
	// cannot pay for itself is removed, not merely cheapened.
	Sequentialized bool
	// ParMinPhase is the cut-over in effect after calibration.
	ParMinPhase int
}

var (
	calOnce sync.Once
	calRes  Calibration
)

// Calibrate measures the host's team dispatch cost and serial kernel
// throughput once per process and derives ParMinPhase from them, replacing
// the hand-set default. A cut-over already changed from its default is
// respected, and callers may still override it after calibration.
//
// Calibrate takes wall-clock timestamps, so it must only run from setup
// paths (main functions, benchmark harnesses) — never from solver code,
// which the determinism analyzer keeps free of time sources. Results are
// bit-for-bit unaffected either way; only the serial/parallel cut-over
// moves.
func Calibrate() Calibration {
	calOnce.Do(func() { calRes = calibrate() })
	return calRes
}

func calibrate() Calibration {
	procs := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < procs {
		procs = c
	}
	cal := Calibration{EffectiveProcs: procs}

	// Serial per-element cost of an axpy-class kernel, best of a few
	// trials to shed scheduler noise. The multiplier is tiny so repeated
	// axpys cannot overflow the operands.
	const n = 1 << 15
	x := NewVector(n)
	y := NewVector(n)
	for i := range x {
		x[i] = 0.5 + float64(i%7)
		y[i] = 0.25 + float64(i%5)
	}
	var ops Ops
	y.AXPY(1e-12, x, &ops) // warm caches
	const reps = 8
	best := time.Duration(1) << 62
	for trial := 0; trial < 5; trial++ {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			y.AXPY(1e-12, x, &ops)
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	cal.ElemNs = float64(best.Nanoseconds()) / float64(reps*n)
	if cal.ElemNs <= 0 {
		cal.ElemNs = 0.5 // timer too coarse; assume a modern core
	}

	// Wake/park round-trip cost: an empty body through a real team.
	ts := procs
	if ts < 2 {
		ts = 2
	}
	if ts > 8 {
		ts = 8
	}
	tm := NewTeam(ts)
	nop := func(lo, hi int) {}
	tm.Run(ts, nop) // spin up the workers before timing
	bestD := time.Duration(1) << 62
	for trial := 0; trial < 7; trial++ {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			tm.Run(ts, nop)
		}
		if d := time.Since(t0); d < bestD {
			bestD = d
		}
	}
	tm.Close()
	dispatchNs := float64(bestD.Nanoseconds()) / reps
	cal.DispatchUs = dispatchNs / 1e3

	// One effective processor: a team can never run its members in
	// parallel, so every dispatch is pure overhead and the cut-over goes out
	// of reach. Otherwise the break-even length n* of a single op is where
	// the work a dispatch offloads, n*elem*(p-1)/p, covers its cost; a phase
	// amortizes several ops (and several saved dispatches) over one
	// wake/park, and an SpMV or triangular-solve row carries several
	// elements' worth of work, so they break even at a quarter of it.
	cal.Sequentialized = procs < 2
	cut := knobCeiling
	if !cal.Sequentialized {
		saved := cal.ElemNs * float64(procs-1) / float64(procs)
		cut = int(dispatchNs/saved) / 4
		if cut < redChunk {
			cut = redChunk
		}
		if cut > 1<<20 {
			cut = 1 << 20
		}
	}
	if ParMinPhase == defParMinPhase { // an explicitly set cut-over is respected
		ParMinPhase = cut
	}
	cal.ParMinPhase = ParMinPhase
	return cal
}
