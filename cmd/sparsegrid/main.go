// Command sparsegrid runs the transport application itself — really, on
// this machine — either sequentially (the legacy structure) or
// concurrently (the renovated master/worker structure), and verifies that
// both produce identical results. Its command line mirrors the legacy C
// program: root, level, tolerance.
//
//	sparsegrid -root 2 -level 3 -tol 1e-3 -mode both
//
// The concurrent mode is fault tolerant: -faults injects seeded worker
// failures (panics, hangs, corrupt results), -retries bounds how often a
// failed job is resubmitted to a fresh worker, and jobs that exhaust their
// retries fall back to a master-local subsolve — so even a run that loses
// workers produces output identical to the sequential version.
//
//	sparsegrid -mode both -faults 'seed=42,panic=0.2,hang=0.1' -retries 3
//
// Observability: -trace exports the run's events as a chronological
// paper-style (§6) two-line trace, -timeline exports them as JSON lines,
// and -metrics prints the per-run metrics summary (event totals, counters,
// per-grid subsolve duration histograms). Each flag takes a file name, or
// "-" for stdout. Without these flags the recorder is never created and
// the run pays nothing.
//
//	sparsegrid -root 2 -level 5 -mode conc -trace - -metrics -
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/solver"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is main's body on the given arguments; returning (rather than
// os.Exit-ing) lets the profile defers flush even on error exits.
func run(args []string) int {
	fs := flag.NewFlagSet("sparsegrid", flag.ContinueOnError)
	var (
		root     = fs.Int("root", 2, "refinement level of the coarsest grid (argv[1])")
		level    = fs.Int("level", 3, "additional refinement above the root level (argv[2])")
		tol      = fs.Float64("tol", 1e-3, "tolerance of the integrator (argv[3])")
		mode     = fs.String("mode", "both", "seq, conc, or both")
		faults   = fs.String("faults", "", "worker fault injection spec, e.g. 'seed=42,panic=0.2,panicpre=0.1,hang=0.1,corrupt=0.1,hangfor=2s' (concurrent mode)")
		retries  = fs.Int("retries", 2, "per-job retry budget of the concurrent mode")
		ddl      = fs.Duration("worker-deadline", 10*time.Second, "how long the master waits for one worker before abandoning it (0 = forever)")
		backoff  = fs.Duration("retry-backoff", 0, "base delay of the seeded exponential retry backoff (0 = retry immediately)")
		budget   = fs.Int("failure-budget", 0, "total failed worker attempts tolerated per concurrent run (0 = unlimited)")
		traceOut = fs.String("trace", "", "write the run's events as a paper-style (§6) chronological trace to this file ('-' = stdout)")
		timeline = fs.String("timeline", "", "write the run's events as a JSON-lines timeline to this file ('-' = stdout)")
		metrics  = fs.String("metrics", "", "write the per-run metrics summary (event totals, counters, histograms) to this file ('-' = stdout)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file (pprof worker labels attribute samples per grid)")
		memProf  = fs.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	runSeq, runConc := *mode == "seq" || *mode == "both", *mode == "conc" || *mode == "both"
	if !runSeq && !runConc {
		fmt.Fprintf(os.Stderr, "sparsegrid: -mode %q: want seq, conc or both\n", *mode)
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	var rec *obs.Recorder
	if *traceOut != "" || *timeline != "" || *metrics != "" {
		rec = obs.NewRecorder(0)
		rec.AppName = "sparsegrid"
	}

	p := solver.Params{
		Root: *root, Level: *level, Tol: *tol,
		Retries:        *retries,
		FailureBudget:  *budget,
		WorkerDeadline: *ddl,
		Fallback:       true,
		Obs:            rec,
	}
	if *backoff > 0 {
		p.Backoff = core.NewBackoff(1, *backoff, 0)
	}
	if *faults != "" {
		inj, err := core.ParseFaultSpec(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		p.Faults = inj
	}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	var seq, conc *solver.Output
	if runSeq {
		t0 := time.Now()
		out, err := solver.Sequential(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sequential:", err)
			return 1
		}
		seq = out
		report("sequential", out, time.Since(t0))
	}
	if runConc {
		t0 := time.Now()
		out, err := solver.Concurrent(p)
		if err != nil {
			var be core.BudgetExhausted
			if errors.As(err, &be) {
				fmt.Fprintf(os.Stderr, "concurrent: run aborted: %d worker failures exceeded the failure budget of %d (raise -failure-budget or -retries)\n",
					be.Failures, be.Budget)
				return 3
			}
			fmt.Fprintln(os.Stderr, "concurrent:", err)
			return 1
		}
		conc = out
		report("concurrent", out, time.Since(t0))
		if fs := out.Faults; fs.Failures > 0 || fs.Retries > 0 || fs.Fallbacks > 0 {
			fmt.Printf("%-10s workers=%d deaths=%d failures=%d retries=%d abandoned=%d fallbacks=%d\n",
				"faults", fs.Workers, fs.Deaths, fs.Failures, fs.Retries, fs.Abandoned, fs.Fallbacks)
		}
	}
	if seq != nil && conc != nil {
		if d := seq.Combined.MaxDiff(conc.Combined); d == 0 {
			fmt.Println("results: concurrent output is exactly the same as the sequential version")
		} else {
			fmt.Printf("results: DIFFER by %g\n", d)
			return 1
		}
	}
	export(*traceOut, rec.WriteTrace)
	export(*timeline, rec.WriteJSONL)
	export(*metrics, rec.WriteMetrics)
	return 0
}

// export writes one observability view to the named file ('-' = stdout,
// empty = disabled).
func export(path string, write func(io.Writer) error) {
	if path == "" {
		return
	}
	w := io.Writer(os.Stdout)
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := write(w); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func report(name string, out *solver.Output, elapsed time.Duration) {
	steps, rejected, iters := 0, 0, 0
	for _, r := range out.Results {
		steps += r.Stats.Steps
		rejected += r.Stats.Rejected
		iters += r.Stats.LinIters
	}
	fmt.Printf("%-10s grids=%d flops=%.3g steps=%d rejected=%d bicgstab_iters=%d elapsed=%v\n",
		name, len(out.Results), float64(out.TotalFlops), steps, rejected, iters, elapsed.Round(time.Millisecond))
	fmt.Printf("%-10s combined grid %v, max |u| = %.6f\n",
		name, out.Combined.G, out.Combined.V.NormInf())
}
