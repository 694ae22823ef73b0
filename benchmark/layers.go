package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/mwsim"
	"repro/internal/obs"
	"repro/internal/pde"
	"repro/internal/rosenbrock"
	"repro/internal/solver"
	"repro/internal/workmodel"
)

// tracedPass pushes the workload's shapes through each layer from the
// outside, timing calls into exported functions, and records a span per
// call. Each section gets a share of the window and repeats while its
// share lasts, at least once.
func (e *env) tracedPass() error {
	if err := e.references(); err != nil {
		return err
	}
	tr := newTracer()
	jac, gridTimes, err := e.reenact(tr, e.share(0.15))
	if err != nil {
		return err
	}
	e.linalgLayer(jac)
	e.solverLayer(e.share(0.40), gridTimes)
	e.workmodelLayer(gridTimes)
	e.coreLayer()
	e.mwsimLayer()
	e.obsLayer()
	if err := e.serveLayer(tr, e.share(0.25), e.share(0.10)); err != nil {
		return err
	}
	e.hostLayer()
	e.metrics.scalar("trace.coverage", tr.coverage())
	e.metrics.scalar("trace.spans", float64(len(tr.spans)))
	e.notes = append(e.notes, tr.selfTimeSummary())
	return tr.write(filepath.Join(e.cfg.outDir, "trace-"+e.w.name+".jsonl"))
}

func (e *env) share(f float64) time.Duration { return time.Duration(f * float64(e.window())) }

// timeCalls times fn in batches of about two milliseconds and returns
// the seconds per call of each batch, so a microsecond kernel is not
// measured by a clock of similar grain.
func timeCalls(fn func(), batches int) []float64 {
	k := 1
	for {
		t0 := time.Now()
		for i := 0; i < k; i++ {
			fn()
		}
		if time.Since(t0) >= 2*time.Millisecond || k >= 1<<22 {
			break
		}
		k *= 2
	}
	out := make([]float64, batches)
	for b := range out {
		t0 := time.Now()
		for i := 0; i < k; i++ {
			fn()
		}
		out[b] = time.Since(t0).Seconds() / float64(k)
	}
	return out
}

// streamMiB is the size of each array of the bandwidth probe: at least
// four times any per-core L2 this is likely to meet.
const streamMiB = 32

// hostLayer measures copy bandwidth. It runs last: 64 MiB of garbage
// makes the collector's next cycles, and so every allocating call after
// it, several times slower.
func (e *env) hostLayer() {
	e.metrics.scalar("host.nproc", float64(runtime.NumCPU()))
	e.metrics.scalar("host.gomaxprocs", float64(e.nproc))
	src := make([]float64, streamMiB<<20/8)
	dst := make([]float64, len(src))
	for i := range src {
		src[i] = float64(i)
	}
	var gbps []float64
	for pass := 0; pass < 9; pass++ {
		t0 := time.Now()
		copy(dst, src)
		gbps = append(gbps, 2*streamMiB*float64(1<<20)/1e9/time.Since(t0).Seconds())
	}
	e.metrics.median("host.stream_gbps", gbps[1:], 1) // the first pass faults the pages in
	e.metrics.scalar("linalg.spmv_bw_share", e.metrics["linalg.spmv_gbps"].Value/e.metrics["host.stream_gbps"].Value)
}

// gridTime is the measured cost of one grid of one shape.
type gridTime struct {
	g       grid.Grid
	seconds float64
}

// reenact runs the sequential driver's steps through exported calls
// (assemble, integrate, combine), one span each under a run span, and
// yields the pde, rosenbrock and grid numbers, the largest Jacobian met
// and the per-grid times the solver and workmodel rows need.
func (e *env) reenact(tr *tracer, budget time.Duration) (*linalg.CSR, map[shape][]gridTime, error) {
	prob := pde.PaperProblem()
	var assemble, integrate, combine []float64
	perGrid := make(map[shape][][]float64)
	var jac *linalg.CSR
	type counts struct{ nnz, unknowns, steps, rejected, linIters, flops int64 }
	var first counts
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < budget; rep++ {
		var c counts
		var tA, tI, tC float64
		for si, sh := range e.shapes {
			p := sh.params()
			p.CoresPerWorker = 1
			req := rep*len(e.shapes) + si
			fam := grid.Family(sh.Root, sh.Level)
			if rep == 0 {
				perGrid[sh] = make([][]float64, len(fam))
			}
			ws := rosenbrock.NewWorkspace()
			results := make([]solver.Result, 0, len(fam))
			t0 := time.Now()
			run := tr.begin("run", -1, req)
			for gi, g := range fam {
				gs := tr.begin("grid", run, req)
				id := tr.begin("pde.assemble", gs, req)
				tg := time.Now()
				d := pde.NewDisc(g, prob)
				dA := time.Since(tg).Seconds()
				tr.end(id)
				id = tr.begin("rosenbrock.integrate", gs, req)
				tg = time.Now()
				res, err := solver.SubsolveOn(d, tol, solver.DefaultTEnd, p.Solver, ws)
				dI := time.Since(tg).Seconds()
				tr.end(id)
				tr.end(gs)
				if err != nil {
					return nil, nil, err
				}
				results = append(results, res)
				tA, tI = tA+dA, tI+dI
				perGrid[sh][gi] = append(perGrid[sh][gi], dA+dI)
				a := d.Jacobian()
				c.nnz += int64(a.NNZ())
				c.unknowns += int64(d.N())
				c.steps += int64(res.Stats.Steps)
				c.rejected += int64(res.Stats.Rejected)
				c.linIters += int64(res.Stats.LinIters)
				c.flops += res.Stats.Ops.Flops
				if jac == nil || a.Rows > jac.Rows {
					jac = a
				}
			}
			id := tr.begin("grid.combine", run, req)
			tg := time.Now()
			out, err := solver.Combine(p, results)
			tC += time.Since(tg).Seconds()
			tr.end(id)
			tr.end(run)
			tr.section(time.Since(t0), 1)
			e.count(sh, e.refs[sh].checkOutput(out, err))
		}
		if rep == 0 {
			first = c
		} else if c != first {
			e.count(e.shapes[0], fmt.Errorf("work counts differ between repeats: %+v then %+v", first, c))
		}
		assemble, integrate, combine = append(assemble, tA), append(integrate, tI), append(combine, tC)
	}
	m := e.metrics
	m.median("pde.assemble_s", assemble, 1)
	m.scalar("pde.nnz", float64(first.nnz))
	m.scalar("pde.unknowns", float64(first.unknowns))
	m.median("rosenbrock.integrate_s", integrate, 1)
	m.scalar("rosenbrock.steps", float64(first.steps))
	m.scalar("rosenbrock.rejected", float64(first.rejected))
	m.scalar("rosenbrock.lin_iters", float64(first.linIters))
	m.scalar("rosenbrock.us_per_step", medianOf(integrate)*1e6/float64(first.steps+first.rejected))
	m.scalar("linalg.flops", float64(first.flops))
	m.median("grid.combine_s", combine, 1)

	times := make(map[shape][]gridTime)
	for sh, grids := range perGrid {
		for gi, samples := range grids {
			times[sh] = append(times[sh], gridTime{grid.Family(sh.Root, sh.Level)[gi], medianOf(samples)})
		}
	}
	return jac, times, nil
}

// rosenbrockShift is a typical gamma*tau of the integrator at tol 1e-3,
// the fixed shift of the kernel measurements.
const rosenbrockShift = 0.004

// linalgLayer times the kernels on the workload's largest Jacobian.
func (e *env) linalgLayer(jac *linalg.CSR) {
	m := e.metrics
	n, nnz := jac.Rows, float64(jac.NNZ())
	x, y, b := linalg.NewVector(n), linalg.NewVector(n), linalg.NewVector(n)
	for i := range x {
		x[i] = 0.5 + float64(i%7)
		b[i] = 1 + float64(i%5)/8
	}
	spmv := timeCalls(func() { jac.MulVec(y, x, nil) }, 15)
	m.median("linalg.spmv_ns_per_nnz", spmv, 1e9/nnz)
	bytes := 12*nnz + 24*float64(n)
	gbps := bytes / 1e9 / medianOf(spmv)
	m.scalar("linalg.spmv_gbps", gbps)
	var sink float64
	m.median("linalg.dot_ns_per_elem", timeCalls(func() { sink += x.Dot(b, nil) }, 15), 1e9/float64(n))

	// The stage system of the workload's own solver, fixed shift, fixed
	// right-hand side, zero start.
	sys := jac.ShiftedScaled(rosenbrockShift)
	ws := linalg.NewWorkspace()
	ilu := e.shapes[0].Solver == "ilu"
	var iters int
	krylov := func() {
		x.Fill(0)
		var st linalg.SolveStats
		if ilu {
			st, _ = ws.BiCGStabILU(sys, x, b, 1e-8, 0, rosenbrockShift, nil)
		} else {
			st, _ = ws.BiCGStab(sys, x, b, 1e-8, 0, nil)
		}
		iters = st.Iterations
	}
	m.median("linalg.krylov_solve_us", timeCalls(krylov, 9), 1e6)
	m.scalar("linalg.krylov_iters", float64(iters))
	so := linalg.NewShiftedOperator(jac)
	shifts := [2]float64{rosenbrockShift, rosenbrockShift / 2}
	flip := 0
	m.median("linalg.shift_update_us", timeCalls(func() { so.Update(shifts[flip], nil); flip ^= 1 }, 9), 1e6)

	f, err := linalg.NewILU0(sys, nil)
	if err != nil {
		e.count(e.shapes[0], fmt.Errorf("ilu0: %w", err))
		return
	}
	m.median("linalg.ilu_factor_us", timeCalls(func() { _, _ = linalg.NewILU0(sys, nil) }, 5), 1e6)
	m.median("linalg.ilu_refactor_us", timeCalls(func() { _ = f.Refactor(sys, nil) }, 5), 1e6)
	m.median("linalg.ilu_solve_ns_per_nnz", timeCalls(func() { f.Solve(y, b, nil) }, 9), 1e9/nnz)

	team := linalg.NewTeam(e.nproc)
	defer team.Close()
	m.median("linalg.team_dispatch_us", timeCalls(func() { team.Run(team.Size(), func(lo, hi int) {}) }, 9), 1e6)
	m.scalar("linalg.team_spmv_speedup", medianOf(spmv)/medianOf(timeCalls(func() { team.MulVec(jac, y, x, nil) }, 15)))
	cal := linalg.Calibrate() // what the process was calibrated to at set-up
	m.scalar("linalg.calib_dispatch_us", cal.DispatchUs)
	m.scalar("linalg.calib_elem_ns", cal.ElemNs)
	m.scalar("linalg.parmin_phase", float64(cal.ParMinPhase))
	_ = sink
}

// solverLayer runs the shapes under every driver variant, interleaved,
// and derives the coordination rows from them and the per-grid times.
func (e *env) solverLayer(budget time.Duration, gridTimes map[shape][]gridTime) {
	type variant struct {
		name string
		run  func(solver.Params) (*solver.Output, error)
		set  func(*solver.Params)
	}
	rec := obs.NewRecorder(0)
	variants := []variant{
		{"solver.st_s", solver.Sequential, func(p *solver.Params) { p.CoresPerWorker = 1 }},
		{"solver.ct_s", solver.Concurrent, func(p *solver.Params) {}},
		{"solver.ct_steal_s", solver.Concurrent, func(p *solver.Params) { p.Schedule = solver.ScheduleSteal }},
		{"solver.ct_elastic_s", solver.Concurrent, func(p *solver.Params) { p.Schedule = solver.ScheduleStealElastic }},
		{"solver.seq_team_s", solver.Sequential, func(p *solver.Params) {}},
		{"obs.ct_traced", solver.Concurrent, func(p *solver.Params) { p.Obs = rec }},
	}
	samples := make(map[string][]float64)
	var sched [2]solver.SchedStats // steal, elastic: of the last sweep
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < budget; rep++ {
		sched = [2]solver.SchedStats{}
		for _, v := range variants {
			total := 0.0
			for _, sh := range e.shapes {
				p := sh.params()
				p.StealSeed = e.cfg.seed
				v.set(&p)
				t0 := time.Now()
				out, err := v.run(p)
				total += time.Since(t0).Seconds()
				err = e.refs[sh].checkOutput(out, err)
				e.count(sh, err)
				if err != nil {
					continue
				}
				if i := int(p.Schedule) - int(solver.ScheduleSteal); i >= 0 {
					sched[i].Steals += out.Sched.Steals
					sched[i].Donations += out.Sched.Donations
					sched[i].Resizes += out.Sched.Resizes
				}
			}
			samples[v.name] = append(samples[v.name], total)
		}
	}
	m := e.metrics
	for _, v := range variants[:5] {
		m.median(v.name, samples[v.name], 1)
	}
	st, ct := m["solver.st_s"].Value, m["solver.ct_s"].Value
	bound := 0.0
	for _, grids := range gridTimes {
		sum, longest := 0.0, 0.0
		for _, g := range grids {
			sum += g.seconds
			longest = math.Max(longest, g.seconds)
		}
		bound += math.Max(sum/float64(e.nproc), longest)
	}
	m.scalar("solver.speedup", st/ct)
	m.scalar("solver.bound_s", bound)
	m.scalar("solver.coord_overhead_s", ct-bound)
	m.scalar("solver.efficiency", st/(float64(e.nproc)*ct))
	m.scalar("solver.steals", float64(sched[0].Steals))
	m.scalar("solver.donations", float64(sched[1].Donations))
	m.scalar("solver.resizes", float64(sched[1].Resizes))
	m.scalar("obs.trace_overhead", medianOf(samples["obs.ct_traced"])/ct)
	m.scalar("serve.solve_floor_ms", ct*1e3/float64(len(e.shapes)))
}

// makespan replays placement with the measured seconds of each task.
func makespan(placement [][]int, seconds []float64) float64 {
	longest := 0.0
	for _, queue := range placement {
		sum := 0.0
		for _, i := range queue {
			sum += seconds[i]
		}
		longest = math.Max(longest, sum)
	}
	return longest
}

// workmodelLayer compares the cost model the schedulers place by with
// the measured per-grid times; both rows are means over the shapes.
func (e *env) workmodelLayer(gridTimes map[shape][]gridTime) {
	model := workmodel.Paper()
	var spread, regret float64
	for _, sh := range e.shapes {
		grids := gridTimes[sh]
		weights := make([]float64, len(grids))
		seconds := make([]float64, len(grids))
		lo, hi := math.Inf(1), 0.0
		for i, g := range grids {
			weights[i] = model.GridWork(g.g, tol)
			seconds[i] = g.seconds
			r := g.seconds / weights[i]
			lo, hi = math.Min(lo, r), math.Max(hi, r)
		}
		spread += hi / lo
		regret += makespan(workmodel.PlaceLPT(e.nproc, weights), seconds) /
			makespan(workmodel.PlaceLPT(e.nproc, seconds), seconds)
	}
	e.metrics.scalar("workmodel.cost_spread", spread/float64(len(e.shapes)))
	e.metrics.scalar("workmodel.lpt_regret", regret/float64(len(e.shapes)))
}

// coreLayer times the master/worker protocol itself: 256 jobs whose
// workers do nothing.
func (e *env) coreLayer() {
	const jobs = 256
	var stats core.Stats
	var perJob []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		stats = core.RunPolicy(func(m *core.Master) {
			pool := m.NewPool()
			for i := 0; i < jobs; i++ {
				pool.Submit(i)
			}
			for i := 0; i < jobs; i++ {
				if _, err := pool.Collect(); err != nil {
					e.count(e.shapes[0], fmt.Errorf("core: no-op job: %w", err))
				}
			}
			m.Rendezvous()
			m.Finished()
		}, func(w *core.Worker) {
			w.Write(w.Read())
		}, core.Policy{})
		perJob = append(perJob, time.Since(t0).Seconds()/jobs)
	}
	e.metrics.median("core.job_roundtrip_us", perJob, 1e6)
	e.metrics.scalar("core.workers", float64(stats.Workers))
	e.metrics.scalar("core.deaths", float64(stats.Deaths))
}

// mwsimLayer guards the paper's Table-1 row: virtual time, so exact.
func (e *env) mwsimLayer() {
	r := mwsim.Run(mwsim.PaperConfig(2, 15, 1e-3))
	e.metrics.scalar("mwsim.speedup_l15", r.Speedup)
	e.metrics.scalar("mwsim.machines_l15", r.AvgMachines)
}

func (e *env) obsLayer() {
	var off *obs.Recorder
	e.metrics.median("obs.emit_off_ns", timeCalls(func() { off.Emit(obs.KSubsolveBegin, "bench", "", 0, 0) }, 9), 1e9)
	on := obs.NewRecorder(0)
	e.metrics.median("obs.emit_on_ns", timeCalls(func() { on.Emit(obs.KSubsolveBegin, "bench", "", 0, 0) }, 9), 1e9)
}

// serveLayer sends a stretch of the request sequence through a traced
// service, reads the server's own counters, and repeats a shorter
// stretch with batching off.
func (e *env) serveLayer(tr *tracer, budget, nobatchBudget time.Duration) error {
	svc, err := e.startWarm(batchWindow)
	if err != nil {
		return err
	}
	rec := svc.srv.Recorder()
	counters := []string{"serve.cache.hits", "serve.cache.misses", "serve.batch.flushes", "serve.batch.steals",
		"serve.shed", "serve.degraded", "serve.failed", "serve.retries"}
	before := make(map[string]int64)
	for _, c := range counters {
		before[c] = rec.Counter(c).Value()
	}
	l := e.newLoop(tr)
	start := time.Now()
	svc, err = e.drive(l, svc, start.Add(budget))
	tr.section(time.Since(start), e.nproc)
	rec = svc.srv.Recorder()
	svc.stop()
	if err != nil {
		return err
	}
	var lat, server, overhead []float64
	for _, smp := range l.samples {
		e.count(smp.shape, smp.err)
		if smp.err != nil {
			continue
		}
		lat = append(lat, smp.latency().Seconds())
		server = append(server, smp.elapsedMs)
		overhead = append(overhead, smp.latency().Seconds()*1e6-smp.elapsedMs*1e3)
	}
	if len(lat) == 0 {
		return fmt.Errorf("traced service: no correct response")
	}
	m := e.metrics
	if e.wedges > 0 {
		before = nil // a replaced server starts its counters over
	}
	delta := func(c string) float64 { return float64(rec.Counter(c).Value() - before[c]) }
	m.median("serve.latency_p50_ms", lat, 1e3)
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	m.scalar("serve.latency_p90_ms", quantile(sorted, 0.90)*1e3)
	m.scalar("serve.latency_p99_ms", quantile(sorted, 0.99)*1e3)
	m.scalar("serve.latency_max_ms", sorted[len(sorted)-1]*1e3)
	m.median("serve.server_p50_ms", server, 1)
	m.median("serve.http_overhead_us", overhead, 1)
	mean := 0.0
	for _, s := range lat {
		mean += s
	}
	mean /= float64(len(lat))
	m.scalar("serve.overhead_share", 1-m["serve.solve_floor_ms"].Value/(mean*1e3))
	m.scalar("serve.queue_wait_p50_us", float64(rec.Histogram("serve.queue.wait.us").Quantile(0.5)))
	m.scalar("serve.batch_wait_p50_us", float64(rec.Histogram("serve.batch.wait.us").Quantile(0.5)))
	m.scalar("serve.mean_batch_size", rec.Histogram("serve.batch.size").Mean())
	m.scalar("serve.batch_flushes", delta("serve.batch.flushes"))
	m.scalar("serve.batch_steals", delta("serve.batch.steals"))
	hits, misses := delta("serve.cache.hits"), delta("serve.cache.misses")
	m.scalar("serve.cache_hit_rate", hits/(hits+misses))
	m.scalar("serve.cache_misses", misses)
	m.scalar("serve.shed", delta("serve.shed"))
	m.scalar("serve.degraded", delta("serve.degraded"))
	m.scalar("serve.failed", delta("serve.failed"))
	m.scalar("serve.retries", delta("serve.retries"))
	m.scalar("serve.wedges", float64(e.wedges))
	if p := topPercentile(len(lat)); p > 0 {
		e.notes = append(e.notes, fmt.Sprintf("traced service latency tail: p%g = %.3f ms over %d requests", p, quantile(sorted, p/100)*1e3, len(lat)))
	}

	// The same stretch of the sequence with the batcher off.
	plain, err := e.startWarm(0)
	if err != nil {
		return err
	}
	nb := e.newLoop(nil)
	start = time.Now()
	nb.run(plain, start.Add(nobatchBudget))
	wall := time.Since(start).Seconds()
	plain.stop()
	ok := 0
	for _, smp := range nb.samples {
		e.count(smp.shape, smp.err)
		if smp.err == nil {
			ok++
		}
	}
	m.scalar("serve.nobatch_throughput_rps", float64(ok)/wall)
	return nil
}
