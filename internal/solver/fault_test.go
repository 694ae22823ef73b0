package solver

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
)

// assertBitForBit checks the paper's §6 invariant under faults: retried and
// fallback jobs recompute deterministically and are combined in family
// order, so a faulty run's output must equal the sequential run's exactly.
func assertBitForBit(t *testing.T, seq, conc *Output) {
	t.Helper()
	if len(seq.Results) != len(conc.Results) {
		t.Fatalf("%d vs %d results", len(seq.Results), len(conc.Results))
	}
	for i := range seq.Results {
		if seq.Results[i].Grid != conc.Results[i].Grid {
			t.Fatalf("result %d: grid %v vs %v", i, seq.Results[i].Grid, conc.Results[i].Grid)
		}
		for j := range seq.Results[i].U {
			if seq.Results[i].U[j] != conc.Results[i].U[j] {
				t.Fatalf("grid %v: u[%d] differs: %g vs %g",
					seq.Results[i].Grid, j, seq.Results[i].U[j], conc.Results[i].U[j])
			}
		}
	}
	if d := seq.Combined.MaxDiff(conc.Combined); d != 0 {
		t.Fatalf("combined fields differ by %g, want exact equality", d)
	}
}

func TestConcurrentWithInjectedFaultsMatchesSequential(t *testing.T) {
	// One worker of each failure mode — a pre-read panic, a hang past the
	// deadline, a corrupt result, a mid-work panic — in a family of 5
	// grids. Every job must complete via retry and the output must stay
	// bit-for-bit identical to the sequential run.
	p := Params{Root: 2, Level: 2, Tol: 1e-3}
	seq, err := Sequential(p)
	if err != nil {
		t.Fatal(err)
	}
	// The deadline must exceed any honest Subsolve time (race-detector
	// slowdown included) yet bound the test: the hung worker is abandoned
	// at the deadline and the run completes without its result.
	p.Retries = 5
	p.WorkerDeadline = 5 * time.Second
	p.Faults = core.PlanFaults(time.Hour,
		core.FaultPanicPreRead, core.FaultNone, core.FaultHang, core.FaultCorrupt, core.FaultPanic)
	conc, err := Concurrent(p)
	if err != nil {
		t.Fatal(err)
	}
	assertBitForBit(t, seq, conc)
	fs := conc.Faults
	if fs.Failures != 4 || fs.Retries != 4 || fs.Workers != 9 {
		t.Fatalf("faults = %+v, want 4 failures, 4 retries, 9 workers", fs)
	}
	if fs.Abandoned != 1 {
		t.Fatalf("faults = %+v, want 1 abandoned (the hung worker)", fs)
	}
	if fs.Deaths != fs.Workers {
		t.Fatalf("deaths %d != workers %d", fs.Deaths, fs.Workers)
	}
	if fs.Fallbacks != 0 {
		t.Fatalf("faults = %+v, want no fallbacks", fs)
	}
}

func TestConcurrentFallbackCompletesBitForBit(t *testing.T) {
	// The first job's worker panics on the first attempt and again on its
	// only retry (draw index 3: indexes 0..2 are the initial submissions),
	// so the job exhausts its budget and degrades to a master-local
	// Subsolve — still bit-for-bit identical.
	p := Params{Root: 2, Level: 1, Tol: 1e-3}
	seq, err := Sequential(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Retries = 1
	p.Fallback = true
	p.Faults = core.PlanFaults(0,
		core.FaultPanic, core.FaultNone, core.FaultNone, core.FaultPanic)
	conc, err := Concurrent(p)
	if err != nil {
		t.Fatal(err)
	}
	assertBitForBit(t, seq, conc)
	fs := conc.Faults
	if fs.Fallbacks != 1 {
		t.Fatalf("faults = %+v, want 1 fallback", fs)
	}
	if fs.Failures != 2 || fs.Retries != 1 {
		t.Fatalf("faults = %+v, want 2 failures / 1 retry", fs)
	}
	if fs.Deaths != fs.Workers {
		t.Fatalf("deaths %d != workers %d", fs.Deaths, fs.Workers)
	}
}

// TestFaultsRecoverUnderAnySchedule: the deprecated Schedule field no
// longer selects a driver without a failure model — fault injection
// validates under a non-zero value and the retry protocol recovers.
func TestFaultsRecoverUnderAnySchedule(t *testing.T) {
	p := Params{Root: 2, Level: 1, Tol: 1e-3}
	seq, err := Sequential(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Schedule = ScheduleStealElastic
	p.Retries = 1
	p.Faults = core.PlanFaults(0, core.FaultPanic)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate with Faults under schedule %d: %v", p.Schedule, err)
	}
	conc, err := Concurrent(p)
	if err != nil {
		t.Fatal(err)
	}
	assertBitForBit(t, seq, conc)
	if fs := conc.Faults; fs.Failures != 1 || fs.Retries != 1 || fs.Deaths != fs.Workers {
		t.Fatalf("faults = %+v, want 1 failure, 1 retry, deaths == workers", fs)
	}
}

func TestConcurrentFailureBudgetError(t *testing.T) {
	// Every worker attempt panics and the run tolerates a single failure:
	// without Fallback the run must abort with BudgetExhausted rather than
	// return a partial combination.
	p := Params{
		Root: 2, Level: 1, Tol: 1e-3,
		Retries:       3,
		FailureBudget: 1,
		Faults:        core.NewFaultInjector(1, 0, 1, 0, 0, 0),
	}
	_, err := Concurrent(p)
	var be core.BudgetExhausted
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want BudgetExhausted", err)
	}
	if be.Budget != 1 {
		t.Fatalf("budget = %d, want 1", be.Budget)
	}
}

func TestConcurrentJobFailedWithoutFallback(t *testing.T) {
	// Retry exhaustion without Fallback must surface the JobFailed error
	// instead of silently dropping a grid from the combination.
	p := Params{
		Root: 2, Level: 1, Tol: 1e-3,
		Retries: 0,
		Faults:  core.PlanFaults(0, core.FaultPanic),
	}
	_, err := Concurrent(p)
	var jf *core.JobFailed
	if !errors.As(err, &jf) {
		t.Fatalf("err = %v, want JobFailed", err)
	}
	if _, ok := jf.Job.(Job); !ok {
		t.Fatalf("JobFailed.Job = %T, want solver.Job", jf.Job)
	}
}
