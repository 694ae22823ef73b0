// Package mwsim replays the restructured application — the master/worker
// protocol of internal/core driving one subsolve worker per family grid —
// on the simulated 32-node cluster of internal/cluster, using the
// calibrated cost model of internal/workmodel for compute and message
// sizes.
//
// This is the experiment engine behind Table 1 and Figures 1-5: a run
// reproduces the sequencing that shaped the paper's measurements (start-up
// of the MANIFOLD runtime, sequential worker placement with perpetual
// task-instance reuse, master-mediated data transfers over 100 Mbps
// Ethernet, heterogeneous CPU speeds, rendezvous, final prolongation) in
// deterministic virtual time.
package mwsim

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/grid"
	"repro/internal/manifold/mconfig"
	"repro/internal/manifold/mlink"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workmodel"
)

// Config describes one concurrent run.
type Config struct {
	Root  int
	Level int
	Tol   float64

	Model workmodel.Model

	// StartupSec models starting the MANIFOLD runtime, reading the CONFIG
	// host file and launching the start-up task instance on the machine
	// the user sits behind.
	StartupSec float64
	// ForkSec is the cost of forking a fresh task instance on a remote
	// machine (paid by the master while it waits for the worker
	// reference).
	ForkSec float64
	// ReuseSec is the cost of installing a worker in an already-running
	// perpetual task instance.
	ReuseSec float64
	// EventSec is the latency of raising one protocol event.
	EventSec float64
	// WorkerSetupSec is the worker-side start-up inside its task instance
	// (loading the solver state, inter-task handshakes). It occupies the
	// task instance — keeping its machine in use — but does not block the
	// master, which has already moved on to the next worker.
	WorkerSetupSec float64
	// IdleTimeoutSec reclaims perpetual task instances idle this long.
	IdleTimeoutSec float64

	// Perpetual mirrors the MLINK {perpetual} keyword; false makes every
	// task instance die with its worker (ablation).
	Perpetual bool
	// MaxLoad mirrors the MLINK {load N} line: how many workers share one
	// task instance. 1 is the paper's distributed deployment; a large
	// value emulates the single-task parallel bundling.
	MaxLoad int
	// IOWorkers enables the paper's §4.1 untried alternative: dedicated
	// I/O workers move the data, so transfers do not occupy the master's
	// own time line (they still contend for the master host's NIC).
	IOWorkers bool
	// PoolPerLevel makes the master open a separate pool (with its own
	// rendezvous barrier) per grid level lm instead of one pool for the
	// whole nested loop (ablation).
	PoolPerLevel bool
	// LociNames, when non-empty, restricts fresh task instances to the
	// named machines (in order), as a CONFIG {locus ...} line does.
	// Unknown names are ignored; an empty result falls back to every
	// machine except the start-up one.
	LociNames []string

	// Faults injects machine-level failures into the run: crashes that
	// lose the machine's task instances and in-flight workers, and
	// slowdowns that stretch its computations. Faults naming unknown
	// machines, and crash faults naming the start-up machine (the master
	// cannot lose its own host), are ignored.
	Faults []MachineFault
	// DetectSec is the failure-detection latency: how long after a crash
	// the master learns that a worker was lost and re-forks its job on
	// another machine. 0 means instant detection.
	DetectSec float64

	// Obs, when non-nil, records the run's virtual-time events (task
	// instance fork/reuse/kill, machine crashes and slowdowns, lost
	// workers) stamped with the virtual clock, so the simulated timeline
	// exports in the same formats as a live run. Nil costs nothing.
	Obs *obs.Recorder
}

// MachineFault schedules one machine-level failure.
type MachineFault struct {
	// Machine is the host name, with or without the ".sen.cwi.nl" suffix.
	Machine string
	// AtSec is the virtual time of the fault.
	AtSec float64
	// Kind is "crash" (the machine dies) or "slow" (it keeps running at
	// reduced speed).
	Kind string
	// Factor is the slowdown factor for "slow" faults (3 = a third of the
	// original speed); ignored for crashes.
	Factor float64
}

// FromDeployment derives the deployment-dependent fields of a Config from
// MLINK and CONFIG sources, tying the paper's §6 application-construction
// pipeline to the simulator: {perpetual} and {load N} come from the MLINK
// task rule, the locus machines from the CONFIG file.
func FromDeployment(base Config, mlinkSrc, configSrc, task string) (Config, error) {
	f, err := mlink.Parse(mlinkSrc)
	if err != nil {
		return base, err
	}
	rule := f.RuleFor(task)
	base.Perpetual = rule.Perpetual
	if rule.Load > 0 {
		base.MaxLoad = rule.Load
	}
	cfg, err := mconfig.Parse(configSrc)
	if err != nil {
		return base, err
	}
	placer, err := cfg.Placer(task)
	if err != nil {
		return base, err
	}
	base.LociNames = placer.Hosts()
	return base, nil
}

// PaperConfig returns the configuration calibrated against the paper's
// concurrent measurements.
func PaperConfig(root, level int, tol float64) Config {
	return Config{
		Root:           root,
		Level:          level,
		Tol:            tol,
		Model:          workmodel.Paper(),
		StartupSec:     2.5,
		ForkSec:        2.0,
		ReuseSec:       1.3,
		EventSec:       0.002,
		WorkerSetupSec: 3.0,
		IdleTimeoutSec: 30,
		Perpetual:      true,
		MaxLoad:        1,
		DetectSec:      5,
	}
}

// Result reports one simulated concurrent run.
type Result struct {
	// ConcurrentSec is the virtual wall-clock time of the whole run
	// (the paper's "ct").
	ConcurrentSec float64
	// SequentialSec is the modelled sequential time on the start-up
	// machine (the paper's "st").
	SequentialSec float64
	// AvgMachines is the weighted average of live task instances (the
	// paper's "m").
	AvgMachines float64
	// PeakMachines is the maximum simultaneous task-instance count.
	PeakMachines int
	// Speedup is SequentialSec / ConcurrentSec (the paper's "su").
	Speedup float64
	// Workers is the number of workers used (2*level + 1).
	Workers int
	// Forks and Reuses split worker placements by task-instance fate.
	Forks, Reuses int
	// Lost counts workers that died with their crashed machine.
	Lost int
	// Retries counts jobs re-dispatched to a replacement worker after a
	// loss (equal to Lost when every loss is recovered).
	Retries int
	// Trace is the machines-in-use step function (Figure 1).
	Trace []cluster.UsagePoint
}

// RunNoisy is Run with the multi-user perturbation model enabled: every
// compute duration is scaled by a deterministic pseudo-random factor in
// [1-amp, 1+amp], emulating the paper's night-time cluster sharing
// (runaway Netscape jobs included). The paper averaged five such runs;
// callers can do the same with five seeds.
func RunNoisy(cfg Config, seed int64, amp float64) Result {
	return run(cfg, seed, amp)
}

// Run simulates one concurrent run, noise-free, and returns its metrics.
func Run(cfg Config) Result { return run(cfg, 0, 0) }

func run(cfg Config, seed int64, noiseAmp float64) Result {
	if cfg.MaxLoad < 1 {
		cfg.MaxLoad = 1
	}
	env := sim.NewEnv()
	cl := cluster.NewPaper(env)
	cl.Obs = cfg.Obs
	if noiseAmp > 0 {
		cl.Noise = rand.New(rand.NewSource(seed))
		cl.NoiseAmplitude = noiseAmp
	}
	masterHost := cl.Machines[0] // the start-up machine (bumpa)
	loci := cl.Machines[1:]
	if len(cfg.LociNames) > 0 {
		var named []*cluster.Machine
		for _, n := range cfg.LociNames {
			if m := cl.MachineByName(n); m != nil {
				named = append(named, m)
			}
		}
		if len(named) > 0 {
			loci = named
		}
	}
	spawner := cluster.NewSpawner(cl, cluster.SpawnerConfig{
		Loci:        loci,
		Perpetual:   cfg.Perpetual,
		MaxLoad:     cfg.MaxLoad,
		ForkCost:    cfg.ForkSec,
		ReuseCost:   cfg.ReuseSec,
		IdleTimeout: cfg.IdleTimeoutSec,
	})
	model := cfg.Model
	fam := grid.Family(cfg.Root, cfg.Level)

	// Group grids into pools: one pool overall, or one per grid level lm.
	var pools [][]grid.Grid
	if cfg.PoolPerLevel {
		byLevel := map[int][]grid.Grid{}
		var order []int
		for _, g := range fam {
			if _, ok := byLevel[g.Level()]; !ok {
				order = append(order, g.Level())
			}
			byLevel[g.Level()] = append(byLevel[g.Level()], g)
		}
		for _, lm := range order {
			pools = append(pools, byLevel[lm])
		}
	} else {
		pools = [][]grid.Grid{fam}
	}

	// Arm the machine faults. Crashes both mark the machine (so
	// in-flight ComputeChecked calls observe the loss) and kill its task
	// instances at the crash instant (so the usage trace records the drop).
	for _, f := range cfg.Faults {
		m := cl.MachineByName(f.Machine)
		if m == nil {
			m = cl.MachineByName(f.Machine + ".sen.cwi.nl")
		}
		if m == nil {
			continue // unknown machine: ignored
		}
		switch f.Kind {
		case "slow":
			m.SlowFrom(f.AtSec, f.Factor)
			if cfg.Obs != nil {
				cfg.Obs.EmitAt(int64(f.AtSec*1e6), obs.KMachineSlow, m.Name(), "FailurePlan", "", int64(f.Factor), 0)
			}
		case "crash":
			if m == masterHost {
				continue // the master cannot lose its own host
			}
			m.FailAt(f.AtSec)
			mm := m
			env.SpawnAt(f.AtSec, "crash:"+mm.Name(), func(*sim.Proc) {
				if cfg.Obs != nil {
					cfg.Obs.EmitAt(int64(f.AtSec*1e6), obs.KMachineCrash, mm.Name(), "FailurePlan", "", 0, 0)
				}
				spawner.KillHost(mm)
			})
		}
	}

	results := sim.NewStore[arrival](env, "dataport")
	deaths := sim.NewStore[struct{}](env, "death_worker")
	var end sim.Time
	lost, retries := 0, 0

	env.Spawn("Master", func(p *sim.Proc) {
		// MANIFOLD runtime start-up; the start-up task instance houses the
		// master.
		p.Hold(cfg.StartupSec)
		masterTask := spawner.Adopt(masterHost, 1)
		// Sequential initialization work of the legacy code.
		cl.Compute(p, masterHost, model.InitMc)

		// dispatch charges one worker with grid g: the coordinator forks or
		// reuses a task instance (the master waits for the worker
		// reference), then the job data moves — on the master's own time
		// line unless I/O workers carry it (step 3d).
		dispatch := func(g grid.Grid) {
			p.Hold(cfg.EventSec) // raise create_worker
			ti := spawner.Place(p, 1)
			if cfg.IOWorkers {
				env.Spawn("io-out", func(io *sim.Proc) {
					cl.Transfer(io, masterHost, ti.Host, workmodel.JobBytes(g))
					startWorker(env, cl, spawner, cfg, g, ti, masterHost, results, deaths)
				})
			} else {
				cl.Transfer(p, masterHost, ti.Host, workmodel.JobBytes(g))
				startWorker(env, cl, spawner, cfg, g, ti, masterHost, results, deaths)
			}
		}

		for _, pool := range pools {
			p.Hold(cfg.EventSec) // raise create_pool
			for _, g := range pool {
				dispatch(g)
			}
			// Step 3f: collect the pool's results. A failed arrival means a
			// machine crash took the worker with it: the master — already
			// past the detection latency — re-forks the job on a machine
			// that is still alive.
			workers := len(pool)
			for done := 0; done < len(pool); {
				a := results.Get(p)
				if a.ok {
					done++
					continue
				}
				lost++
				retries++
				workers++
				dispatch(a.g)
			}
			// Steps 3g/3h: rendezvous — the coordinator counts one
			// death_worker per worker created for this pool, lost workers
			// included, so the barrier terminates under faults.
			p.Hold(cfg.EventSec) // raise rendezvous
			for i := 0; i < workers; i++ {
				deaths.Get(p)
			}
			p.Hold(cfg.EventSec) // a_rendezvous
		}
		p.Hold(cfg.EventSec) // raise finished
		// Step 5: final sequential prolongation work.
		cl.Compute(p, masterHost, model.ProlongWork(cfg.Root, cfg.Level))
		spawner.Retire(masterTask)
		spawner.RetireAll() // application exit kills perpetual tasks
		end = p.Now()
	})

	env.Run()
	if b := env.Blocked(); len(b) > 0 {
		panic(fmt.Sprintf("mwsim: deadlock: %v", b))
	}

	trace := cl.Trace()
	st := model.SequentialSeconds(cfg.Root, cfg.Level, cfg.Tol, masterHost.Spec.MHz)
	res := Result{
		ConcurrentSec: end,
		SequentialSec: st,
		AvgMachines:   trace.WeightedAverage(0, end),
		PeakMachines:  trace.Peak(),
		Workers:       len(fam),
		Forks:         spawner.Forks(),
		Reuses:        spawner.Reuses(),
		Lost:          lost,
		Retries:       retries,
		Trace:         trace.Points(),
	}
	if end > 0 {
		res.Speedup = st / end
	}
	return res
}

// arrival is one dataport delivery: either a worker's result for grid g, or
// — when a machine crash took the worker — the master's delayed discovery
// that the job was lost and must be re-dispatched.
type arrival struct {
	g  grid.Grid
	ok bool
}

// startWorker launches the simulated worker: compute on the task
// instance's host, ship the result back through the master's NIC, signal
// the dataport and die. If the host crashes first, the worker is lost: the
// master learns of the loss DetectSec after the crash, and the coordinator
// raises the lost worker's death_worker on its behalf so the rendezvous
// count stays correct.
func startWorker(env *sim.Env, cl *cluster.Cluster, spawner *cluster.Spawner,
	cfg Config, g grid.Grid, ti *cluster.TaskInstance, masterHost *cluster.Machine,
	results *sim.Store[arrival], deaths *sim.Store[struct{}]) {

	env.Spawn(fmt.Sprintf("Worker(%d,%d)", g.L1, g.L2), func(w *sim.Proc) {
		w.Hold(cfg.WorkerSetupSec)
		ok := cl.ComputeChecked(w, ti.Host, cfg.Model.GridWork(g, cfg.Tol))
		if ok {
			cl.Transfer(w, ti.Host, masterHost, workmodel.ResultBytes(g))
			ok = ti.Host.AliveAt(w.Now()) // host may die mid-transfer
		}
		if !ok {
			if detectAt := ti.Host.CrashTime() + cfg.DetectSec; detectAt > w.Now() {
				w.Hold(detectAt - w.Now())
			}
			if cfg.Obs != nil {
				cfg.Obs.EmitAt(int64(w.Now()*1e6), obs.KWorkerLost, ti.Host.Name(), w.Name, "", int64(g.L1), int64(g.L2))
			}
			results.Put(arrival{g: g, ok: false})
			deaths.Put(struct{}{}) // raised on the lost worker's behalf
			return                 // the task instance died with its machine
		}
		results.Put(arrival{g: g, ok: true})
		w.Hold(cfg.EventSec) // raise death_worker
		deaths.Put(struct{}{})
		spawner.Leave(ti, 1)
	})
}
