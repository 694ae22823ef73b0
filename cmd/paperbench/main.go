// Command paperbench regenerates the paper's evaluation: Table 1 and
// Figures 1-5, printed side by side with the published numbers.
//
// Usage:
//
//	paperbench -all
//	paperbench -table1 -tol 1e-3
//	paperbench -fig 1
//	paperbench -table1 -runs 5    # average five noisy runs, as the paper did
//	paperbench -fig 1 -timeline run.jsonl   # also export the virtual-time timeline
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/mwsim"
	"repro/internal/obs"
)

func main() {
	var (
		all      = flag.Bool("all", false, "regenerate every table and figure")
		table1   = flag.Bool("table1", false, "regenerate Table 1")
		fig      = flag.Int("fig", 0, "regenerate one figure (1-5)")
		tol      = flag.Float64("tol", 1e-3, "integrator tolerance (1e-3 or 1e-4)")
		runs     = flag.Int("runs", 1, "noisy runs to average (1 = noise-free)")
		maxLvl   = flag.Int("maxlevel", 15, "highest additional refinement level")
		timeline = flag.String("timeline", "", "with -fig 1: also export the simulated run's virtual-time events as a JSON-lines timeline to this file ('-' = stdout)")
	)
	flag.Parse()

	if !*all && !*table1 && *fig == 0 {
		flag.Usage()
		os.Exit(2)
	}

	table := func(tol float64) []bench.Row {
		opt := bench.DefaultTable1Options(tol)
		opt.MaxLevel = *maxLvl
		opt.Runs = *runs
		return bench.Table1(opt)
	}

	if *table1 || *all {
		tols := []float64{*tol}
		if *all {
			tols = []float64{1e-3, 1e-4}
		}
		for _, tl := range tols {
			bench.WriteTable1(os.Stdout, tl, table(tl))
			fmt.Println()
		}
	}
	doFig := func(n int) {
		switch n {
		case 1:
			cfg := mwsim.PaperConfig(2, *maxLvl, 1e-3)
			var rec *obs.Recorder
			if *timeline != "" {
				rec = obs.NewRecorder(0)
				rec.AppName = "paperbench"
				cfg.Obs = rec
			}
			bench.WriteFigure1(os.Stdout, bench.Figure1Config(cfg))
			if rec != nil {
				writeTimeline(*timeline, rec)
			}
		case 2:
			rows := table(1e-3)
			bench.WriteFigure(os.Stdout, "Figure 2: sequential vs concurrent time, tol 1.0e-3 (log scale)",
				bench.TimesFigure(rows, 1e-3), true)
		case 3:
			rows := table(1e-3)
			bench.WriteFigure(os.Stdout, "Figure 3: speedup and machines, tol 1.0e-3",
				bench.SpeedupFigure(rows, 1e-3), false)
		case 4:
			rows := table(1e-4)
			bench.WriteFigure(os.Stdout, "Figure 4: sequential vs concurrent time, tol 1.0e-4 (log scale)",
				bench.TimesFigure(rows, 1e-4), true)
		case 5:
			rows := table(1e-4)
			bench.WriteFigure(os.Stdout, "Figure 5: speedup and machines, tol 1.0e-4",
				bench.SpeedupFigure(rows, 1e-4), false)
		default:
			fmt.Fprintf(os.Stderr, "paperbench: no figure %d (want 1-5)\n", n)
			os.Exit(2)
		}
		fmt.Println()
	}
	if *fig != 0 {
		doFig(*fig)
	}
	if *all {
		for n := 1; n <= 5; n++ {
			doFig(n)
		}
	}
}

// writeTimeline exports the recorder's events as JSON lines to the named
// file ('-' = stdout).
func writeTimeline(path string, rec *obs.Recorder) {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := rec.WriteJSONL(w); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
