// Package core implements the paper's primary contribution: the generic,
// reusable master/worker coordination protocol (the MANIFOLD manners
// ProtocolMW and Create_Worker_Pool of §4.2) on top of the IWIM runtime in
// internal/manifold.
//
// The protocol is generic in exactly the paper's sense: the master and the
// worker are parameters, and the coordinator knows nothing about the
// computation they perform. It only prescribes their input/output and
// event behaviour (§4.3):
//
//	master: raise create_pool; per worker {raise create_worker, read
//	        &worker from own input port and activate it, write the
//	        worker's job to own output port}; read results from own
//	        dataport; raise rendezvous and wait for a_rendezvous;
//	        repeat pools as needed; raise finished.
//	worker: read job from own input port; compute; write results to own
//	        output port; raise death_worker.
//
// The coordinator reacts to the master's events, creates workers, wires
// the streams (&worker -> master, master -> worker as Break-Keep, worker ->
// master.dataport as Keep-Keep so results survive state preemption) and
// organizes the rendezvous by counting death_worker events.
package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/manifold"
	"repro/internal/obs"
)

// Event names of the master/worker protocol, as in the paper's MANIFOLD
// source.
const (
	EvCreatePool   = "create_pool"
	EvCreateWorker = "create_worker"
	EvRendezvous   = "rendezvous"
	EvARendezvous  = "a_rendezvous"
	EvFinished     = "finished"
	EvDeathWorker  = "death_worker"
)

// Master is the handle through which a master computation speaks the
// protocol. It wraps the master's manifold process; every method
// corresponds to a step of the behaviour interface in §4.3.
type Master struct {
	p     *manifold.Process
	state *runState
}

func (m *Master) policy() Policy { return m.state.policy }

// Process returns the underlying manifold process.
func (m *Master) Process() *manifold.Process { return m.p }

// CreatePool requests the coordinator to create an empty pool of workers
// (step 3a).
func (m *Master) CreatePool() {
	m.state.obs.Emit(obs.KPoolCreate, m.p.Name(), "", 0, 0)
	m.p.Raise(EvCreatePool)
}

// CreateWorker requests a new worker in the pool (step 3b), reads the
// worker's process reference from the master's own input port (step 3c),
// activates it and returns it. Call Send immediately afterwards to charge
// the worker with its job.
func (m *Master) CreateWorker() *manifold.Process {
	m.p.Raise(EvCreateWorker)
	ref := m.p.Input().MustRead().(*manifold.Process)
	ref.Activate()
	return ref
}

// Send writes the information the most recently created worker needs to do
// its job on the master's own output port (step 3d); the coordinator has
// connected that port to the worker's input port.
func (m *Master) Send(u manifold.Unit) { m.p.Output().Write(u) }

// ReadResult collects one computational result from the master's dataport
// (step 3f). Results arrive in completion order, not creation order.
func (m *Master) ReadResult() manifold.Unit { return m.p.Port("dataport").MustRead() }

// ReadResultWithin is ReadResult with a deadline, so a master is never
// stuck forever on a hung worker. It returns manifold.ErrTimeout when no
// result arrives within d.
func (m *Master) ReadResultWithin(d time.Duration) (manifold.Unit, error) {
	return m.p.Port("dataport").ReadWithin(d)
}

// ReadResultUntil is ReadResultWithin against an absolute deadline — the
// form the Pool uses so that per-worker deadlines propagate exactly
// instead of being re-derived as durations on every read.
func (m *Master) ReadResultUntil(t time.Time) (manifold.Unit, error) {
	return m.p.Port("dataport").ReadUntil(t)
}

// abandon gives up on a worker the master no longer trusts to deliver: the
// master raises death_worker on its behalf (exactly once per worker — a
// late self-raise is suppressed) so the rendezvous count stays correct, and
// closes the worker's input port so a worker hung before its read unsticks
// (its MustRead panics, which the protocol wrapper absorbs). The goroutine
// of a worker hung inside its own body cannot be killed — Go has no
// preemptive termination — so it is left to finish in the background,
// mirroring how an operating system would eventually reap a MANIFOLD task
// instance.
func (m *Master) abandon(w *manifold.Process) {
	m.state.obs.Emit(obs.KJobAbandon, w.Name(), "", 0, 0)
	if m.state.markDead(w) {
		m.p.Raise(EvDeathWorker)
		m.state.obs.Emit(obs.KWorkerDeath, w.Name(), "", 0, 0)
	}
	w.Input().Close()
	m.state.addAbandoned()
}

// Rendezvous asks the coordinator to organize a rendezvous — a
// synchronization point at which every worker of the pool has died — and
// naps until the coordinator acknowledges it with a_rendezvous (steps
// 3g-3h).
func (m *Master) Rendezvous() {
	m.p.Raise(EvRendezvous)
	m.p.Wait(manifold.On(EvARendezvous))
}

// Finished tells the coordinator that the master needs no more workers
// (step 4); the coordinator halts while the master may go on with its
// final sequential computation (step 5).
func (m *Master) Finished() { m.p.Raise(EvFinished) }

// Worker is the handle through which a worker computation speaks the
// protocol.
type Worker struct {
	p       *manifold.Process
	id      int  // pool-local job ID, -1 until an enveloped job is read
	tagged  bool // true once an enveloped job was read
	fault   FaultKind
	hangFor time.Duration
}

// Process returns the underlying manifold process.
func (w *Worker) Process() *manifold.Process { return w.p }

// Read obtains the job information from the worker's own input port
// (worker step 1). Jobs submitted through a Pool arrive in a tagging
// envelope, which Read strips; injected post-read faults fire here.
func (w *Worker) Read() manifold.Unit {
	u := w.p.Input().MustRead()
	if env, ok := u.(jobEnvelope); ok {
		w.tagged = true
		w.id = env.ID
		u = env.Job
	}
	switch w.fault {
	case FaultPanic:
		panic(InjectedFault{Kind: FaultPanic})
	case FaultHang:
		time.Sleep(w.hangFor)
	}
	return u
}

// Write delivers computed results through the worker's own output port
// (worker step 3); the coordinator's KK stream carries them to the
// master's dataport. Results of enveloped jobs are tagged on the way out.
func (w *Worker) Write(u manifold.Unit) {
	if w.fault == FaultCorrupt {
		u = CorruptUnit{Worker: w.p.Name()}
		w.fault = FaultNone
	}
	if w.tagged {
		u = resultEnvelope{ID: w.id, Unit: u}
	}
	w.p.Output().Write(u)
}

// MasterFunc is the master computation: everything the legacy main program
// does except the work delegated to workers.
type MasterFunc func(*Master)

// WorkerFunc is the worker computation (the paper's subsolve wrapper).
type WorkerFunc func(*Worker)

// WorkerFailure is delivered to the master's dataport when a worker body
// panics, so the master is never left waiting on a dead worker. JobID is
// the pool-local job the worker had read, or -1 when it failed before
// reading one.
type WorkerFailure struct {
	Worker string
	JobID  int
	Reason any
}

// Error describes the worker failure as an error value.
func (f WorkerFailure) Error() string {
	return fmt.Sprintf("core: worker %s failed: %v", f.Worker, f.Reason)
}

// runState is the bookkeeping one Run shares between the master handle and
// the coordinator: the policy, the per-worker death flags backing the
// raise-exactly-once guarantee, and the failure statistics.
type runState struct {
	policy Policy
	obs    *obs.Recorder // nil = observability off; Emit on nil is a no-op

	mu        sync.Mutex
	dead      map[*manifold.Process]bool
	stats     Stats
	abandoned int
}

func newRunState(policy Policy) *runState {
	return &runState{policy: policy, obs: policy.Obs, dead: make(map[*manifold.Process]bool)}
}

// markDead flips the worker's death flag and reports whether the caller won
// the race and must raise death_worker. Both the worker's protocol wrapper
// (normal death) and the master (abandonment) call it; exactly one raise
// happens per worker, so the rendezvous count is always Workers.
func (st *runState) markDead(w *manifold.Process) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dead[w] {
		return false
	}
	st.dead[w] = true
	return true
}

func (st *runState) addWorker() {
	st.mu.Lock()
	st.stats.Workers++
	st.mu.Unlock()
}

func (st *runState) addDeath() {
	st.mu.Lock()
	st.stats.Deaths++
	st.mu.Unlock()
}

func (st *runState) addFailure() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.stats.Failures++
	return st.stats.Failures
}

func (st *runState) addRetry() {
	st.mu.Lock()
	st.stats.Retries++
	st.mu.Unlock()
}

func (st *runState) addAbandoned() {
	st.mu.Lock()
	st.stats.Abandoned++
	st.abandoned++
	st.mu.Unlock()
}

func (st *runState) snapshot() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// Run executes one application under the master/worker protocol: it
// creates the master process and the coordinator (the paper's Main
// manifold calling ProtocolMW), activates them and blocks until every
// process has terminated.
func Run(masterFn MasterFunc, workerFn WorkerFunc) {
	RunPolicy(masterFn, workerFn, Policy{})
}

// RunPolicy is Run under an explicit fault-tolerance policy; it returns the
// run's failure statistics. With a zero Policy it behaves exactly like Run.
func RunPolicy(masterFn MasterFunc, workerFn WorkerFunc, policy Policy) Stats {
	st := newRunState(policy)
	env := manifold.NewEnv()
	env.SetRecorder(policy.Obs)
	master := env.NewProcess("Master", func(p *manifold.Process) {
		masterFn(&Master{p: p, state: st})
	}, "dataport")
	master.Observe(EvARendezvous)

	coord := env.NewProcess("Main", func(p *manifold.Process) {
		protocolMW(p, master, workerFn, st)
	})
	coord.Observe(EvCreatePool, EvCreateWorker, EvRendezvous, EvFinished, EvDeathWorker)

	coord.Activate()
	master.Activate()
	master.Terminated()
	coord.Terminated()
	st.mu.Lock()
	abandoned := st.abandoned
	st.mu.Unlock()
	// An abandoned worker's goroutine may be hung indefinitely; the
	// protocol has already raised its death and discarded its results, so
	// the run does not wait for it (the goroutine is left to finish or leak
	// in the background). Fault-free runs drain completely, as before.
	if abandoned == 0 {
		env.Wait()
	}
	return st.snapshot()
}

// protocolMW is the paper's ProtocolMW manner: in its begin state it waits
// for events raised by the (already active) master; create_pool calls the
// Create_Worker_Pool manner, finished halts.
func protocolMW(coord *manifold.Process, master *manifold.Process, workerFn WorkerFunc, st *runState) {
	for {
		occ := coord.Wait(
			manifold.From(EvCreatePool, master),
			manifold.From(EvFinished, master),
		)
		switch occ.Event {
		case EvCreatePool:
			createWorkerPool(coord, master, workerFn, st)
			// post(begin): fall through to waiting again.
		case EvFinished:
			return // halt
		}
	}
}

// workerSeq numbers workers across pools for readable process names.
// Access is confined to the coordinator goroutine of one Run; a global
// would race across concurrent Runs, so it lives in the pool call.
func createWorkerPool(coord *manifold.Process, master *manifold.Process, workerFn WorkerFunc, st *runState) {
	now := 0 // Number Of Workers created (the paper's `now` variable)
	t := 0   // dead workers counted (the paper's `t` variable)
	var scope manifold.Scope
	env := coord.Env()

	for {
		// priority create_worker > rendezvous (the paper line 23).
		occ := coord.Wait(
			manifold.From(EvCreateWorker, master),
			manifold.From(EvRendezvous, master),
		)
		switch occ.Event {
		case EvCreateWorker:
			// Leaving the previous create_worker state dismantles its
			// streams: BK streams break at the source, the KK results
			// stream stays intact.
			scope.Dismantle()

			// Faults are drawn here, in the coordinator goroutine, so a
			// seeded injector assigns them deterministically in worker
			// creation order.
			fault := FaultNone
			var hangFor time.Duration
			if inj := st.policy.Injector; inj != nil {
				fault = inj.Draw()
				hangFor = inj.HangFor()
			}
			name := fmt.Sprintf("Worker-%d", now+1)
			w := env.NewProcess(name, func(p *manifold.Process) {
				wk := &Worker{p: p, id: -1, fault: fault, hangFor: hangFor}
				defer func() {
					if r := recover(); r != nil {
						// Deliver the failure where the master is
						// listening, then die normally so the rendezvous
						// count stays correct. An abandoned worker's death
						// was already raised on its behalf; markDead
						// suppresses the duplicate.
						p.Output().Write(WorkerFailure{Worker: p.Name(), JobID: wk.id, Reason: r})
					}
					if st.markDead(p) {
						p.Raise(EvDeathWorker)
						st.obs.Emit(obs.KWorkerDeath, p.Name(), "", 0, 0)
					}
				}()
				if wk.fault == FaultPanicPreRead {
					panic(InjectedFault{Kind: FaultPanicPreRead})
				}
				runWorkerBody(p.Name(), workerFn, wk, st.obs)
			})
			st.addWorker()
			st.obs.Emit(obs.KWorkerCreate, name, "", int64(now+1), 0)

			// The stream configuration of the paper's line 36:
			//   &worker -> master -> worker -> master.dataport
			// with the last stream declared KK.
			scope.Connect(coord.Output(), master.Input(), manifold.BK)
			scope.Connect(master.Output(), w.Input(), manifold.BK)
			scope.Connect(w.Output(), master.Port("dataport"), manifold.KK)
			coord.Output().Write(w) // send &worker; the master activates it
			now++

		case EvRendezvous:
			st.obs.Emit(obs.KRendezvousBegin, coord.Name(), "", int64(now), int64(t))
			for t < now {
				coord.Wait(manifold.On(EvDeathWorker))
				t++
				st.addDeath()
			}
			scope.Dismantle()
			coord.Raise(EvARendezvous)
			st.obs.Emit(obs.KRendezvousEnd, coord.Name(), "", int64(now), int64(t))
			return // the manner returns to ProtocolMW
		}
	}
}

// runWorkerBody executes the worker computation, labelling its goroutine for
// CPU and goroutine profiles when observability is on (pprof labels name the
// worker in `go tool pprof` output). With observability off the body runs
// directly — no context, no label set, no allocation.
func runWorkerBody(name string, workerFn WorkerFunc, wk *Worker, rec *obs.Recorder) {
	if rec == nil {
		workerFn(wk)
		return
	}
	labels := pprof.Labels("mw_role", "worker", "mw_name", name)
	pprof.Do(context.Background(), labels, func(context.Context) {
		workerFn(wk)
	})
}
