package solver

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestStealStormAccounting forces steals — every grid is piled onto
// executor 0's deque while three idle executors sit next to it — and
// asserts the exact steal accounting three ways: scheduler stats, the
// solver.steals counter, and the drop-proof solver.steal event tally all
// agree, and the stolen work histogram saw exactly one sample per steal.
// The output must still be bit-identical to the sequential run. Scheduling
// decides how many steals happen, so the run is repeated until at least
// one occurs (on any host a multi-grid family with three idle thieves
// steals almost immediately).
func TestStealStormAccounting(t *testing.T) {
	lowerParMin(t)
	saved := stealPlace
	stealPlace = func(executors int, weights []float64) [][]int {
		queues := make([][]int, executors)
		for i := range weights {
			queues[0] = append(queues[0], i)
		}
		return queues
	}
	t.Cleanup(func() { stealPlace = saved })

	base := Params{Root: 2, Level: 2, Tol: 1e-3, CoresPerWorker: 1}
	ref, err := Sequential(base)
	if err != nil {
		t.Fatal(err)
	}
	want := hashOutput(t, ref)

	for _, sched := range []Schedule{ScheduleSteal, ScheduleStealElastic} {
		t.Run(sched.String(), func(t *testing.T) {
			for attempt := 0; attempt < 5; attempt++ {
				rec := obs.NewRecorder(4096)
				p := base
				p.Schedule = sched
				p.Executors = 4
				p.StealSeed = int64(17 + attempt)
				p.Obs = rec

				out, err := Concurrent(p)
				if err != nil {
					t.Fatal(err)
				}
				if got := hashOutput(t, out); got != want {
					t.Fatal("storm output differs from sequential reference")
				}

				steals := int64(out.Sched.Steals)
				if got := rec.Counter("solver.steals").Value(); got != steals {
					t.Fatalf("solver.steals counter = %d, Sched.Steals = %d", got, steals)
				}
				if got := int64(rec.KindCount(obs.KSteal)); got != steals {
					t.Fatalf("solver.steal events = %d, Sched.Steals = %d", got, steals)
				}
				if got := rec.Histogram("solver.steal.mc").Count(); got != steals {
					t.Fatalf("solver.steal.mc samples = %d, Sched.Steals = %d", got, steals)
				}
				if got := int64(rec.KindCount(obs.KTeamResize)); got != int64(out.Sched.Resizes) {
					t.Fatalf("linalg.team.resize events = %d, Sched.Resizes = %d", got, out.Sched.Resizes)
				}
				if got := rec.Histogram("linalg.team.resize.us").Count(); got != int64(out.Sched.Resizes) {
					t.Fatalf("resize.us samples = %d, Sched.Resizes = %d", got, out.Sched.Resizes)
				}
				if out.Sched.Resizes > out.Sched.Donations {
					t.Fatalf("Resizes %d > Donations %d", out.Sched.Resizes, out.Sched.Donations)
				}
				if sched == ScheduleSteal && out.Sched.Donations != 0 {
					t.Fatalf("non-elastic schedule recorded %d donations", out.Sched.Donations)
				}
				if steals > 0 {
					return // storm observed and accounted exactly
				}
			}
			t.Fatal("no steal occurred in 5 storm attempts")
		})
	}
}

// TestStealGuardrail sets the cost-model floor above every grid's modelled
// work: thieves must refuse all of it, so the pile on executor 0 is solved
// single-file by its owner — stealing sequentialized away by the model,
// with zero steal events.
func TestStealGuardrail(t *testing.T) {
	lowerParMin(t)
	saved := stealPlace
	stealPlace = func(executors int, weights []float64) [][]int {
		queues := make([][]int, executors)
		for i := range weights {
			queues[0] = append(queues[0], i)
		}
		return queues
	}
	t.Cleanup(func() { stealPlace = saved })

	base := Params{Root: 2, Level: 2, Tol: 1e-3, CoresPerWorker: 1}
	ref, err := Sequential(base)
	if err != nil {
		t.Fatal(err)
	}
	want := hashOutput(t, ref)

	rec := obs.NewRecorder(1024)
	p := base
	p.Schedule = ScheduleSteal
	p.Executors = 4
	p.StealMinMc = 1e18 // above any modelled grid cost
	p.Obs = rec
	out, err := Concurrent(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := hashOutput(t, out); got != want {
		t.Fatal("guardrail output differs from sequential reference")
	}
	if out.Sched.Steals != 0 || rec.KindCount(obs.KSteal) != 0 {
		t.Fatalf("guardrail leaked %d steals (%d events)", out.Sched.Steals, rec.KindCount(obs.KSteal))
	}
}

// TestStealValidate pins the parameter surface: fault injection is the
// pool schedule's domain, and unknown schedules are rejected.
func TestStealValidate(t *testing.T) {
	p := Params{Root: 2, Level: 1, Tol: 1e-3, Schedule: ScheduleSteal}
	p.Faults = core.NewFaultInjector(1, 0, 0.5, 0, 0, 0)
	if _, err := Concurrent(p); err == nil {
		t.Error("Concurrent accepted fault injection on the steal schedule")
	}
	p = Params{Root: 2, Level: 1, Tol: 1e-3, Schedule: Schedule(99)}
	if _, err := Concurrent(p); err == nil {
		t.Error("Concurrent accepted unknown schedule")
	}
	p = Params{Root: 2, Level: 1, Tol: 1e-3, Executors: -1}
	if _, err := Concurrent(p); err == nil {
		t.Error("Concurrent accepted negative executor count")
	}
}
