package core

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"
)

// doubler is the worker computation used throughout: read one int, double
// it. Injected faults hit the protocol wrapper and Read/Write around it.
func doubler(w *Worker) {
	v := w.Read().(int)
	w.Write(2 * v)
}

// rejectCorrupt is the Validate hook used by tests that inject corruption.
func rejectCorrupt(u any) error {
	if c, ok := u.(CorruptUnit); ok {
		return fmt.Errorf("corrupt unit from %s", c.Worker)
	}
	return nil
}

// runPool drives one pool of n doubling jobs under the policy and returns
// the sorted successful results, the per-job errors, and the run stats.
func runPool(t *testing.T, n int, policy Policy) ([]int, []error, Stats) {
	t.Helper()
	var got []int
	var errs []error
	stats := RunPolicy(func(m *Master) {
		pool := m.NewPool()
		for i := 0; i < n; i++ {
			pool.Submit(i)
		}
		for i := 0; i < n; i++ {
			u, err := pool.Collect()
			if err != nil {
				errs = append(errs, err)
				continue
			}
			got = append(got, u.(int))
		}
		m.Rendezvous()
		m.Finished()
	}, doubler, policy)
	sort.Ints(got)
	return got, errs, stats
}

func wantDoubles(t *testing.T, got []int, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("got %d results (%v), want %d", len(got), got, n)
	}
	for i, v := range got {
		if v != 2*i {
			t.Fatalf("sorted results %v, want doubles of 0..%d", got, n-1)
		}
	}
}

func TestPanicBeforeReadRetried(t *testing.T) {
	// The worker dies before it ever reads its job; the master must learn
	// of the failure (JobID unknown, correlated by worker name) and
	// resubmit to a fresh worker.
	policy := Policy{
		Retries:  1,
		Injector: PlanFaults(0, FaultPanicPreRead),
	}
	got, errs, stats := runPool(t, 1, policy)
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	wantDoubles(t, got, 1)
	if stats.Failures != 1 || stats.Retries != 1 || stats.Workers != 2 {
		t.Fatalf("stats = %+v, want 1 failure, 1 retry, 2 workers", stats)
	}
	if stats.Deaths != stats.Workers {
		t.Fatalf("deaths %d != workers %d", stats.Deaths, stats.Workers)
	}
}

func TestHangPastDeadlineAbandonedAndRetried(t *testing.T) {
	// The first worker stalls far past the master's deadline: the master
	// abandons it (raising its death on its behalf) and retries the job;
	// the stalled worker's late result must be discarded.
	policy := Policy{
		Retries:        1,
		WorkerDeadline: 50 * time.Millisecond,
		Injector:       PlanFaults(3*time.Second, FaultHang),
	}
	start := time.Now()
	got, errs, stats := runPool(t, 1, policy)
	if elapsed := time.Since(start); elapsed >= 3*time.Second {
		t.Fatalf("run took %v: master waited out the hang instead of abandoning", elapsed)
	}
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	wantDoubles(t, got, 1)
	if stats.Abandoned != 1 || stats.Retries != 1 || stats.Workers != 2 {
		t.Fatalf("stats = %+v, want 1 abandoned, 1 retry, 2 workers", stats)
	}
	if stats.Deaths != stats.Workers {
		t.Fatalf("deaths %d != workers %d", stats.Deaths, stats.Workers)
	}
}

func TestMultipleSimultaneousFailures(t *testing.T) {
	// Half the pool's first attempts die at once; every job must still
	// complete and the rendezvous must account for every worker created.
	const n = 6
	policy := Policy{
		Retries:  2,
		Injector: PlanFaults(0, FaultPanic, FaultPanic, FaultPanic),
	}
	got, errs, stats := runPool(t, n, policy)
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	wantDoubles(t, got, n)
	if stats.Failures != 3 || stats.Retries != 3 || stats.Workers != n+3 {
		t.Fatalf("stats = %+v, want 3 failures, 3 retries, %d workers", stats, n+3)
	}
	if stats.Deaths != stats.Workers {
		t.Fatalf("deaths %d != workers %d", stats.Deaths, stats.Workers)
	}
}

func TestCorruptResultRejectedAndRetried(t *testing.T) {
	policy := Policy{
		Retries:  1,
		Validate: rejectCorrupt,
		Injector: PlanFaults(0, FaultCorrupt),
	}
	got, errs, stats := runPool(t, 2, policy)
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	wantDoubles(t, got, 2)
	if stats.Failures != 1 || stats.Retries != 1 {
		t.Fatalf("stats = %+v, want 1 failure, 1 retry", stats)
	}
}

func TestRetryExhaustionReportsJobFailed(t *testing.T) {
	// Job 0 panics on its first attempt and again on its retry (draw index
	// 3: indexes 0..2 are the initial submissions); with Retries=1 it must
	// surface as JobFailed carrying the original job for graceful
	// degradation.
	policy := Policy{
		Retries:  1,
		Injector: PlanFaults(0, FaultPanic, FaultNone, FaultNone, FaultPanic),
	}
	got, errs, stats := runPool(t, 3, policy)
	if len(errs) != 1 {
		t.Fatalf("errors = %v, want exactly one JobFailed", errs)
	}
	var jf *JobFailed
	if !errors.As(errs[0], &jf) {
		t.Fatalf("error %v is not a JobFailed", errs[0])
	}
	if jf.Job.(int) != 0 || jf.Attempts != 2 {
		t.Fatalf("JobFailed = %+v, want job 0 after 2 attempts", jf)
	}
	if len(got) != 2 {
		t.Fatalf("got %v, want the two surviving jobs", got)
	}
	if stats.Deaths != stats.Workers {
		t.Fatalf("deaths %d != workers %d", stats.Deaths, stats.Workers)
	}
}

func TestFailureBudgetExhausted(t *testing.T) {
	// Every attempt panics and the run tolerates only 2 failures: the pool
	// must stop retrying, report BudgetExhausted for everything left, and
	// still reach a clean rendezvous.
	alwaysPanic := NewFaultInjector(1, 0, 1, 0, 0, 0)
	policy := Policy{
		Retries:       5,
		FailureBudget: 2,
		Injector:      alwaysPanic,
	}
	got, errs, stats := runPool(t, 4, policy)
	if len(got) != 0 {
		t.Fatalf("got %v, want no successes", got)
	}
	if len(errs) != 4 {
		t.Fatalf("%d errors, want 4", len(errs))
	}
	var be BudgetExhausted
	if !errors.As(errs[len(errs)-1], &be) {
		t.Fatalf("last error %v is not BudgetExhausted", errs[len(errs)-1])
	}
	if be.Budget != 2 {
		t.Fatalf("budget = %d, want 2", be.Budget)
	}
	if stats.Deaths != stats.Workers {
		t.Fatalf("deaths %d != workers %d", stats.Deaths, stats.Workers)
	}
}

func TestRendezvousCountAcrossPoolsWithFaults(t *testing.T) {
	// Two pools in one run, faults in both: every pool's rendezvous must
	// terminate and the total death count must equal the workers created.
	policy := Policy{
		Retries:  2,
		Injector: PlanFaults(0, FaultPanic, FaultNone, FaultPanicPreRead, FaultNone, FaultPanic),
	}
	var all []int
	stats := RunPolicy(func(m *Master) {
		for pool := 0; pool < 2; pool++ {
			pl := m.NewPool()
			for i := 0; i < 3; i++ {
				pl.Submit(pool*10 + i)
			}
			for i := 0; i < 3; i++ {
				u, err := pl.Collect()
				if err != nil {
					panic(err)
				}
				all = append(all, u.(int))
			}
			m.Rendezvous()
		}
		m.Finished()
	}, doubler, policy)
	if len(all) != 6 {
		t.Fatalf("%d results, want 6", len(all))
	}
	if stats.Deaths != stats.Workers {
		t.Fatalf("deaths %d != workers %d (stats %+v)", stats.Deaths, stats.Workers, stats)
	}
	if stats.Failures != 3 || stats.Retries != 3 {
		t.Fatalf("stats = %+v, want 3 failures / 3 retries", stats)
	}
}

func TestInjectorDeterministicDraws(t *testing.T) {
	a := NewFaultInjector(42, 0.1, 0.2, 0.2, 0.2, time.Second)
	b := NewFaultInjector(42, 0.1, 0.2, 0.2, 0.2, time.Second)
	for i := 0; i < 200; i++ {
		if ka, kb := a.Draw(), b.Draw(); ka != kb {
			t.Fatalf("draw %d: %v != %v", i, ka, kb)
		}
	}
}

func TestParseFaultSpec(t *testing.T) {
	fi, err := ParseFaultSpec("seed=7, panic=0.25, panicpre=0.1, hang=0.2, corrupt=0.05, hangfor=250ms")
	if err != nil {
		t.Fatal(err)
	}
	if fi.HangFor() != 250*time.Millisecond {
		t.Fatalf("hangFor = %v", fi.HangFor())
	}
	for _, bad := range badFaultSpecs {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// badFaultSpecs are specs ParseFaultSpec must refuse. A negative
// probability could otherwise offset one above 1 (every attempt hangs), a
// NaN would silently inject nothing, and a negative hangfor would become
// the default.
var badFaultSpecs = []string{
	"panic", "frob=1", "panic=x", "panic=0.9,hang=0.9",
	"panic=-1,hang=2", "hang=-0.5,corrupt=1.5", "panic=NaN", "hangfor=-3s",
}

// FuzzParseFaultSpec: whatever the spec, ParseFaultSpec either refuses it
// or returns an injector whose probabilities are each in [0, 1], sum to at
// most 1, and whose hangs last a positive time.
func FuzzParseFaultSpec(f *testing.F) {
	f.Add("seed=7, panic=0.25, panicpre=0.1, hang=0.2, corrupt=0.05, hangfor=250ms")
	f.Add("seed=42,panic=0.2,hang=0.1,corrupt=0.1,hangfor=100ms")
	for _, bad := range badFaultSpecs {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fi, err := ParseFaultSpec(spec)
		if err != nil {
			return
		}
		ps := []float64{fi.pPre, fi.pPanic, fi.pHang, fi.pCorr}
		sum := 0.0
		for _, p := range ps {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("spec %q: probability %v outside [0, 1] (%v)", spec, p, ps)
			}
			sum += p
		}
		if sum > 1 {
			t.Fatalf("spec %q: probabilities %v sum to %v", spec, ps, sum)
		}
		if fi.HangFor() <= 0 {
			t.Fatalf("spec %q: hangfor %v", spec, fi.HangFor())
		}
	})
}

func TestZeroPolicyPoolBehavesLikePlainProtocol(t *testing.T) {
	// The Pool façade under an empty policy must reproduce plain Run
	// semantics: no retries, no deadlines, results in completion order.
	got, errs, stats := runPool(t, 8, Policy{})
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	wantDoubles(t, got, 8)
	if stats.Failures != 0 || stats.Retries != 0 || stats.Abandoned != 0 {
		t.Fatalf("stats = %+v, want no failures", stats)
	}
	if stats.Workers != 8 || stats.Deaths != 8 {
		t.Fatalf("stats = %+v, want 8 workers / 8 deaths", stats)
	}
}
