// Command benchmark is the one harness every performance or simplicity
// change to this repository is judged with. It runs four workloads — two
// family solves through the solver drivers, two request mixes through an
// in-process solved — checks every output against a sequential
// reference, and prints every metric by name with its unit.
//
//	go run ./benchmark -seed 1                       # all workloads, both passes
//	go run ./benchmark -workload serve-hot -trace 0  # one end-to-end pass
//	go run ./benchmark -agree                        # the set twice; do the runs agree?
//
// Run from the repository root. The last line of standard output is a
// JSON object with the pass's correctness tally and metrics; README.md
// has the metric tables and what each is predicted to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/linalg"
)

// runSeconds is the length of the timed window of one pass.
const runSeconds = 20

func main() {
	var (
		name     = flag.String("workload", "", "run only this workload (default: all)")
		seed     = flag.Int64("seed", 1, "seed of the request sequence")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed window")
		trace    = flag.Int("trace", -1, "0: end-to-end pass, 1: traced per-layer pass, -1: both")
		short    = flag.Bool("short", false, "smaller shapes and a tenth of the window")
		agree    = flag.Bool("agree", false, "run the end-to-end set twice, interleaved, and compare within the bounds")
		out      = flag.String("out", "benchmark/out/result.json", "where to write the results; traces go beside it")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *manifest {
		fmt.Println(string(manifestJSON()))
		return
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, short: *short, outDir: filepath.Dir(*out)}
	if *short {
		cfg.seconds /= 10
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}

	rep := report{Host: fingerprint(*seed)}
	fmt.Printf("host: %+v\n", rep.Host)
	ok := true
	if *agree {
		ok = runAgree(selected, cfg, &rep)
	} else {
		for _, w := range selected {
			for _, traced := range []bool{false, true} {
				if *trace >= 0 && traced != (*trace == 1) {
					continue
				}
				c := cfg
				c.trace = traced
				res := runPass(w, c)
				rep.Results = append(rep.Results, res)
				ok = ok && res.Correct
			}
		}
	}
	if err := writeJSON(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if *agree && !ok {
		os.Exit(1)
	}
}

// report is what -out receives: every pass of the invocation under the
// fingerprint of the host that ran it.
type report struct {
	Host    host     `json:"host"`
	Results []result `json:"results"`
}

// host is the fingerprint numbers are only comparable under.
type host struct {
	NumCPU      int                `json:"num_cpu"`
	GoMaxProcs  int                `json:"gomaxprocs"`
	GoVersion   string             `json:"go_version"`
	Calibration linalg.Calibration `json:"calibration"`
	Seed        int64              `json:"seed"`
}

func fingerprint(seed int64) host {
	return host{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Calibration: linalg.Calibrate(), Seed: seed,
	}
}

// runPass runs one pass over one workload under a watchdog, prints its
// metrics, and ends with the line the driver reads.
func runPass(w workload, cfg runConfig) result {
	e := newEnv(w, cfg)
	defs := endToEnd
	pass := e.endToEndPass
	if cfg.trace {
		defs, pass = perLayer, e.tracedPass
	}
	// A pass that hangs must still end: well past anything a healthy run
	// needs, report the pass as failed and leave.
	limit := 10*e.window() + 30*time.Second
	if limit > 170*time.Second {
		limit = 170 * time.Second
	}
	watchdog := time.AfterFunc(limit, func() {
		dump := filepath.Join(cfg.outDir, "watchdog-"+w.name+".txt")
		_ = dumpGoroutines(dump) // best effort on the way out
		fmt.Printf("%s: watchdog after %v; goroutines in %s\n", w.name, limit, dump)
		printLine(result{Workload: w.name, Attempted: 1, Failed: 1})
		os.Exit(1)
	})
	err := pass()
	watchdog.Stop()

	if err != nil {
		e.count(e.shapes[0], err)
	}
	var missing []string
	e.res.Metrics, missing = e.metrics.ordered(defs)
	e.res.Correct = e.res.Failed == 0 && len(missing) == 0
	kind := "end-to-end"
	if cfg.trace {
		kind = "traced"
	}
	fmt.Printf("\n== %s, %s pass, seed %d, window %gs\n", w.name, kind, cfg.seed, cfg.seconds)
	for _, m := range e.res.Metrics {
		fmt.Println(m)
	}
	for _, name := range missing {
		fmt.Printf("%-30s not measured\n", name)
	}
	fmt.Printf("%-30s %14.6g %-6s (%d failed of %d)\n", "failed_share", float64(e.res.Failed)/float64(e.res.Attempted), "ratio", e.res.Failed, e.res.Attempted)
	for _, f := range e.res.Failures {
		fmt.Println("  failed:", f)
	}
	for _, note := range e.notes {
		fmt.Println(note)
	}
	printLine(e.res)
	return e.res
}

// printLine prints the one-line JSON object the driver parses.
func printLine(r result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range r.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // metricSet stores only finite numbers
	}
	fmt.Println(string(b))
}

// runAgree runs the end-to-end set twice, workloads interleaved, and
// reports for each metric both values, their relative difference and
// the bound. It returns whether every pair agrees.
func runAgree(selected []workload, cfg runConfig, rep *report) bool {
	cfg.trace = false
	sets := [2]map[string]result{{}, {}}
	for round := range sets {
		for _, w := range selected {
			res := runPass(w, cfg)
			rep.Results = append(rep.Results, res)
			sets[round][w.name] = res
		}
	}
	ok := true
	fmt.Printf("\n== agreement of two sets of runs\n%-12s %-16s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range selected {
		a, b := sets[0][w.name], sets[1][w.name]
		if !a.Correct || !b.Correct {
			fmt.Printf("%-12s failed operations: %d and %d\n", w.name, a.Failed, b.Failed)
			ok = false
		}
		for i, d := range endToEnd {
			if i >= len(a.Metrics) || i >= len(b.Metrics) {
				continue
			}
			x, y := a.Metrics[i].Value, b.Metrics[i].Value
			diff := (y - x) / x
			verdict := ""
			if diff > d.Bound || diff < -d.Bound {
				verdict, ok = "  DISAGREE", false
			}
			fmt.Printf("%-12s %-16s %14.6g %14.6g %+7.1f%% %5.0f%%%s\n", w.name, d.Name, x, y, 100*diff, 100*d.Bound, verdict)
		}
	}
	return ok
}

// manifestJSON renders BENCHMARK.json from the tables the program
// itself measures by, so the two cannot drift (a test compares them).
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // the tables hold only strings and finite numbers
	}
	return b
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
