// Package obsfix stubs the obs Recorder and manifold Process surfaces by
// name and exercises the taxonomy checks: exact names, <grid> concat
// families, dynamic names, and typo'd metric and event names.
package obsfix

type Counter struct{}

type Gauge struct{}

type Histogram struct{}

type Recorder struct{}

func (r *Recorder) Counter(name string) *Counter     { return nil }
func (r *Recorder) Gauge(name string) *Gauge         { return nil }
func (r *Recorder) Histogram(name string) *Histogram { return nil }

type Process struct{}

func (p *Process) Raise(event string)       {}
func (p *Process) Observe(events ...string) {}

const attemptUs = "core.job.attempt.us"

func metrics(r *Recorder, gname string) {
	r.Gauge("core.jobs.outstanding")
	r.Histogram(attemptUs)
	r.Histogram("solver.subsolve." + gname + ".us")
	r.Counter("serve.requests")

	r.Gauge("core.jobs.outstandin")                    // want `metric name "core.jobs.outstandin" is not in the taxonomy`
	r.Histogram("solver.subsolve." + gname + ".uss")   // want `matches no <grid> family`
	r.Counter("solver.steals")                         // want `metric name "solver.steals" is not in the taxonomy`
	r.Counter("serve.exec.scales")                     // want `metric name "serve.exec.scales" is not in the taxonomy`
	r.Counter("serve.batch.steals")                    // want `metric name "serve.batch.steals" is not in the taxonomy`
	r.Histogram("linalg.team.imbalance.us")            // want `metric name "linalg.team.imbalance.us" is not in the taxonomy`
	r.Histogram("linalg.team.phase.us")                // want `metric name "linalg.team.phase.us" is not in the taxonomy`
	r.Histogram("solver.subsolve." + gname + ".cores") // want `matches no <grid> family`

	dynamic := gname + ".us"
	r.Counter(dynamic) // wholly dynamic: out of the pass's reach
}

func events(p *Process) {
	p.Raise("death_worker")
	p.Observe("create_pool", "finished")

	p.Raise("death_workerr")           // want `event name "death_workerr" is not in the protocol taxonomy`
	p.Observe("finished", "finishedd") // want `event name "finishedd" is not in the protocol taxonomy`
}
