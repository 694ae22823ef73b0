package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/serve"
)

// TestWorkloadsShort runs both passes of every workload at -short size:
// no operation may fail, every declared metric must be measured, and the
// trace must be a well-formed tree that accounts for the traced time.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 1, seconds: 0.3, short: true, outDir: t.TempDir()}
			for _, traced := range []bool{false, true} {
				cfg.trace = traced
				res := runPass(w, cfg)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v failed=%d of %d: %v", traced, res.Correct, res.Failed, res.Attempted, res.Failures)
				}
				want := len(endToEnd)
				if traced {
					want = len(perLayer)
				}
				if len(res.Metrics) != want {
					t.Fatalf("trace=%v: %d metrics, want %d", traced, len(res.Metrics), want)
				}
			}
			spans := readTrace(t, filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl"))
			if len(spans) == 0 {
				t.Fatal("empty trace")
			}
			for _, s := range spans {
				if s.EndUs < s.StartUs {
					t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
				}
				if s.Parent == -1 {
					continue
				}
				if s.Parent < 0 || s.Parent >= len(spans) {
					t.Fatalf("span %d %s: parent %d does not resolve", s.ID, s.Name, s.Parent)
				}
				p := spans[s.Parent]
				if s.StartUs < p.StartUs || s.EndUs > p.EndUs || s.Req != p.Req {
					t.Errorf("span %d %s [%d,%d] req %d lies outside its parent %s [%d,%d] req %d",
						s.ID, s.Name, s.StartUs, s.EndUs, s.Req, p.Name, p.StartUs, p.EndUs, p.Req)
				}
			}
		})
	}
}

func readTrace(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.ID != len(spans) {
			t.Fatalf("%s: span id %d at line %d", path, s.ID, len(spans))
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

// TestCoverage checks that on family-deep the spans of the re-enacted
// sequential run account for the time the run took.
func TestCoverage(t *testing.T) {
	w, _ := findWorkload("family-deep")
	e := newEnv(w, runConfig{seed: 1, seconds: 0.3, short: true, trace: true, outDir: t.TempDir()})
	if err := e.references(); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	if _, _, err := e.reenact(tr, e.window()); err != nil {
		t.Fatal(err)
	}
	if c := tr.coverage(); c < 0.9 || c > 1.1 {
		t.Errorf("trace.coverage = %v, want within [0.9, 1.1]", c)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "run", StartUs: 0, EndUs: 100, Parent: -1},
		{ID: 1, Name: "grid", StartUs: 10, EndUs: 60, Parent: 0},
		{ID: 2, Name: "assemble", StartUs: 10, EndUs: 20, Parent: 1},
		{ID: 3, Name: "integrate", StartUs: 20, EndUs: 55, Parent: 1},
		{ID: 4, Name: "combine", StartUs: 70, EndUs: 90, Parent: 0},
	}
	want := []int64{30, 5, 10, 35, 20}
	got := selfTimes(spans)
	var sum int64
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
		sum += got[i]
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest holds the tables to the limits of the driver's contract
// and the committed BENCHMARK.json to the tables.
func TestManifest(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	name := func(s string) {
		if !nameRE.MatchString(s) {
			t.Errorf("name %q is outside the contract", s)
		}
		if seen[s] {
			t.Errorf("name %q is used twice", s)
		}
		seen[s] = true
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) == 0 || len(w.why) > 200 || bytes.ContainsRune([]byte(w.why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	setup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := append(manifestJSON(), '\n'); !bytes.Equal(file, want) {
		t.Error("BENCHMARK.json differs from the program's tables; regenerate it with: go run ./benchmark -manifest > BENCHMARK.json")
	}
}

func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {40, 75}, {20, 50}, {19, 0}, {10000, 99.9}} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestRequestSequence: the seed, and nothing else, fixes the requests.
func TestRequestSequence(t *testing.T) {
	w, _ := findWorkload("serve-mixed")
	sequence := func(seed int64) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := 0; i < 500; i++ {
			if err := enc.Encode(solveRequest(drawShape(w.shapes, seed, i))); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	if !bytes.Equal(sequence(1), sequence(1)) {
		t.Error("the same seed gave two request sequences")
	}
	if bytes.Equal(sequence(1), sequence(2)) {
		t.Error("seeds 1 and 2 gave the same request sequence")
	}
	n := len(w.shapes)
	for round := 0; round < 10; round++ {
		used := map[shape]bool{}
		for i := round * n; i < (round+1)*n; i++ {
			used[drawShape(w.shapes, 1, i)] = true
		}
		if len(used) != n {
			t.Errorf("requests %d..%d hold %d of %d shapes, want each once", round*n, (round+1)*n-1, len(used), n)
		}
	}
}

// TestOracle: a response that is not the reference's is a failure.
func TestOracle(t *testing.T) {
	ref := reference{flops: 1000, maxU: 0.75, grids: 7}
	good := serve.SolveResponse{Status: serve.StatusCompleted, Grids: 7, Flops: 1000, MaxU: 0.75}
	if err := ref.checkResponse(good); err != nil {
		t.Errorf("correct response rejected: %v", err)
	}
	for name, mutate := range map[string]func(*serve.SolveResponse){
		"status": func(r *serve.SolveResponse) { r.Status = serve.StatusFailed },
		"shed":   func(r *serve.SolveResponse) { r.Status = serve.StatusShed },
		"grids":  func(r *serve.SolveResponse) { r.Grids = 5 },
		"flops":  func(r *serve.SolveResponse) { r.Flops++ },
		"max_u":  func(r *serve.SolveResponse) { r.MaxU += 1e-15 },
	} {
		bad := good
		mutate(&bad)
		if ref.checkResponse(bad) == nil {
			t.Errorf("response with wrong %s accepted", name)
		}
	}
}
