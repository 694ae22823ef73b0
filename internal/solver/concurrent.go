package solver

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/pde"
	"repro/internal/rosenbrock"
	"repro/internal/workmodel"
)

// Job is the unit of information a worker needs to do its job: which grid
// to solve and with what parameters. The master writes it to its own
// output port; the coordinator's stream carries it to the worker.
type Job struct {
	Grid grid.Grid
	Prob *pde.Problem
	Tol  float64
	TEnd float64
	Lin  rosenbrock.LinearSolver
}

// jobResult is the unit a worker writes back through the KK stream to the
// master's dataport.
type jobResult struct {
	res Result
	err error
}

// LargestFirst returns the order in which to start the subsolves of fam —
// indices into it, the most expensive grid by the workmodel's cost first,
// ties in family order. Whoever runs a family
// on fewer cores than it has grids waits for its makespan: started first, the
// critical-path grid runs from t=0, where the family order would start it
// wherever the nested loop put it. The order is no part of the answer:
// results are placed by index and combined in family order.
func LargestFirst(fam []grid.Grid, tol float64) []int {
	model := workmodel.Paper()
	weights := make([]float64, len(fam))
	order := make([]int, len(fam))
	for i, g := range fam {
		weights[i] = model.GridWork(g, tol)
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return weights[order[a]] > weights[order[b]]
	})
	return order
}

// Concurrent runs the restructured application: the master performs all
// the computation of the sequential version except the Subsolve work,
// which it delegates to a pool of workers under the master/worker protocol
// of internal/core. Workers run concurrently (as goroutines — MANIFOLD
// threads); the results are combined in the same family order as the
// sequential version, so the output is bit-for-bit identical.
//
// The run is fault tolerant under the Params policy: failed workers
// (panics, missed deadlines, corrupt results) have their jobs resubmitted
// to fresh workers within the retry budget, and — with Fallback — jobs
// that exhaust their retries are computed master-locally, so even a run
// that loses workers still completes with the sequential answer.
func Concurrent(p Params) (*Output, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	fam := grid.Family(p.Root, p.Level)
	index := make(map[grid.Grid]int, len(fam))
	for i, g := range fam {
		index[g] = i
	}
	// The workmodel weights set the submission order (LargestFirst), which
	// does not affect the output: results are recorded by grid and combined
	// in family order.
	order := LargestFirst(fam, p.Tol)
	results := make([]Result, len(fam))
	var masterErr error
	fallbacks := 0

	policy := core.Policy{
		Retries:        p.Retries,
		FailureBudget:  p.FailureBudget,
		WorkerDeadline: p.WorkerDeadline,
		Backoff:        p.Backoff,
		Injector:       p.Faults,
		Obs:            p.Obs,
		// A result that is not a jobResult (e.g. an injected CorruptUnit)
		// counts as a failed attempt and is retried; a jobResult carrying a
		// solver error is a deterministic application failure, which a
		// retry cannot fix, so it passes through to the master.
		Validate: func(u any) error {
			if _, ok := u.(jobResult); !ok {
				return fmt.Errorf("solver: unexpected unit %T on dataport", u)
			}
			return nil
		},
	}

	record := func(r jobResult) {
		if r.err != nil {
			if masterErr == nil {
				masterErr = r.err
			}
			return
		}
		i, ok := index[r.res.Grid]
		if !ok {
			if masterErr == nil {
				masterErr = fmt.Errorf("solver: result for unexpected grid %v", r.res.Grid)
			}
			return
		}
		results[i] = r.res
	}

	stats := core.RunPolicy(func(m *core.Master) {
		// Step 2: initialization work happened in the caller (parameter
		// validation, family layout). Step 3: one pool for all grids of
		// the nested loop, one worker per grid — plus retry workers for
		// jobs whose worker was lost.
		pool := m.NewPool()
		for _, i := range order {
			pool.Submit(Job{Grid: fam[i], Prob: p.Problem, Tol: p.Tol, TEnd: p.TEnd, Lin: p.Solver})
		}
		// Step 3f: collect results (they arrive in completion order).
		for range fam {
			u, err := pool.Collect()
			if err == nil {
				record(u.(jobResult))
				continue
			}
			var jf *core.JobFailed
			if errors.As(err, &jf) && p.Fallback {
				// Graceful degradation: the job exhausted its retries, so
				// the master performs the Subsolve itself — the same
				// deterministic computation a worker would have run.
				if job, ok := jf.Job.(Job); ok {
					fallbacks++
					if p.Obs != nil {
						p.Obs.Emit(obs.KFallback, "Master", job.Grid.String(), int64(jf.ID), int64(jf.Attempts))
					}
					res, serr := timedSubsolve(p.Obs, "Master", job.Grid, job.Prob, job.Tol, job.TEnd, job.Lin, nil)
					record(jobResult{res: res, err: serr})
					continue
				}
			}
			if masterErr == nil {
				masterErr = err
			}
		}
		// Steps 3g/3h and 4.
		m.Rendezvous()
		m.Finished()
	}, func(w *core.Worker) {
		// Worker steps 1-3; death_worker (step 4) is raised by the
		// protocol wrapper when this function returns. Each worker owns
		// its integrator workspace — solver buffers are never shared
		// across goroutines.
		ws := rosenbrock.NewWorkspace()
		job := w.Read().(Job)
		res, err := timedSubsolve(p.Obs, w.Process().Name(), job.Grid, job.Prob, job.Tol, job.TEnd, job.Lin, ws)
		w.Write(jobResult{res: res, err: err})
	}, policy)

	if masterErr != nil {
		return nil, masterErr
	}
	// Step 5: the master's final computation — the prolongation
	// (combination) work.
	out, err := combine(p, results)
	if err != nil {
		return nil, err
	}
	out.Faults = FaultStats{
		Workers:   stats.Workers,
		Deaths:    stats.Deaths,
		Failures:  stats.Failures,
		Retries:   stats.Retries,
		Abandoned: stats.Abandoned,
		Fallbacks: fallbacks,
	}
	return out, nil
}
