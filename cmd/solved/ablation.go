package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/linalg"
	"repro/internal/serve"
)

// abSide is one half of the batching ablation: the client-side ledger and
// latency profile of a load run, plus the server-side batching/caching
// counters of that run.
type abSide struct {
	Completed int     `json:"completed"`
	Degraded  int     `json:"degraded"`
	Shed      int     `json:"shed"`
	Failed    int     `json:"failed"`
	Errors    int     `json:"errors"`
	P50Us     int64   `json:"p50_us"`
	P95Us     int64   `json:"p95_us"`
	P99Us     int64   `json:"p99_us"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Thru      float64 `json:"throughput_rps"`

	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	BatchFlushes  int64   `json:"batch_flushes"`
	MeanBatchSize float64 `json:"mean_batch_size"`
}

// abReport is the BENCH_6.json shape: the ablation methodology is the
// same load (same seed, same arrival schedule) against two self-hosted
// servers differing only in the throughput layer.
type abReport struct {
	PR         int     `json:"pr"`
	Bench      string  `json:"bench"`
	Go         string  `json:"go"`
	HostCPUs   int     `json:"host_cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Load       abLoad  `json:"load"`
	Off        abSide  `json:"off"`
	On         abSide  `json:"on"`
	Speedup    float64 `json:"speedup"`
}

type abLoad struct {
	Clients  int     `json:"clients"`
	Requests int     `json:"requests"`
	Burst    int     `json:"burst"`
	Tenants  int     `json:"tenants"`
	Root     int     `json:"root"`
	Level    int     `json:"level"`
	Tol      float64 `json:"tol"`
	PauseMs  float64 `json:"pause_ms"`
	Seed     int64   `json:"seed"`
}

// runAblation is the loadtest -ab mode: drive the identical load against
// a server with the throughput layer off, then on, and compare completed
// requests per second. minSpeedup > 0 turns the comparison into a gate
// (CI's acceptance criterion), minHitRate > 0 gates the warm-cache check.
func runAblation(cfg serve.Config, lc serve.LoadConfig, benchJSON string, minSpeedup, minHitRate float64) int {
	linalg.Calibrate()

	offCfg := cfg
	offCfg.BatchWindow = 0 // no batcher, no cache
	onCfg := cfg
	if onCfg.BatchWindow <= 0 {
		onCfg.BatchWindow = 2 * time.Millisecond
	}

	fmt.Println("ablation: batching+caching OFF")
	off, err := runSide(offCfg, lc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ablation:", err)
		return 1
	}
	fmt.Println("ablation: batching+caching ON")
	on, err := runSide(onCfg, lc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ablation:", err)
		return 1
	}

	rep := abReport{
		PR: 8, Bench: "serve_batching_ablation",
		Go: runtime.Version(), HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Load: abLoad{
			Clients: lc.Clients, Requests: lc.Requests, Burst: lc.Burst,
			Tenants: lc.Tenants, Root: lc.Root, Level: lc.Level, Tol: lc.Tol,
			PauseMs: float64(lc.Pause.Microseconds()) / 1e3, Seed: lc.Seed,
		},
		Off: off, On: on,
	}
	if off.Thru > 0 {
		rep.Speedup = on.Thru / off.Thru
	}
	fmt.Printf("ablation: off=%.2f/s on=%.2f/s speedup=%.2fx hit-rate=%.2f (shed off=%d on=%d)\n",
		off.Thru, on.Thru, rep.Speedup, on.CacheHitRate, off.Shed, on.Shed)

	if benchJSON != "" {
		f, err := os.Create(benchJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ablation:", err)
			return 1
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(rep)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ablation:", err)
			return 1
		}
	}

	code := 0
	if minSpeedup > 0 {
		if on.Shed != off.Shed {
			fmt.Fprintf(os.Stderr, "ablation: shed rates differ (off=%d on=%d) — speedup not comparable\n", off.Shed, on.Shed)
			code = 1
		}
		if rep.Speedup < minSpeedup {
			fmt.Fprintf(os.Stderr, "ablation: speedup %.2fx below required %.2fx\n", rep.Speedup, minSpeedup)
			code = 1
		}
	}
	if minHitRate > 0 && on.CacheHitRate <= minHitRate {
		fmt.Fprintf(os.Stderr, "ablation: cache hit rate %.2f not above required %.2f\n", on.CacheHitRate, minHitRate)
		code = 1
	}
	return code
}

// runSide self-hosts one server configuration, runs the load, drains, and
// folds the client ledger and server counters into one abSide.
func runSide(cfg serve.Config, lc serve.LoadConfig) (abSide, error) {
	srv := serve.NewServer(cfg)
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return abSide{}, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	lc.URL = "http://" + ln.Addr().String()
	res := serve.RunLoad(lc)
	fmt.Println(res)
	if clean := srv.Drain(time.Minute); !clean {
		return abSide{}, fmt.Errorf("drain timed out")
	}
	if res.Errors > 0 {
		return abSide{}, fmt.Errorf("%d transport errors", res.Errors)
	}

	rec := srv.Recorder()
	side := abSide{
		Completed: res.Completed, Degraded: res.Degraded, Shed: res.Shed,
		Failed: res.Failed, Errors: res.Errors,
		P50Us: res.P50.Microseconds(), P95Us: res.P95.Microseconds(), P99Us: res.P99.Microseconds(),
		ElapsedMs: float64(res.Elapsed.Microseconds()) / 1e3, Thru: res.Throughput,

		CacheHits:    rec.Counter("serve.cache.hits").Value(),
		CacheMisses:  rec.Counter("serve.cache.misses").Value(),
		BatchFlushes: rec.Counter("serve.batch.flushes").Value(),
	}
	if lookups := side.CacheHits + side.CacheMisses; lookups > 0 {
		side.CacheHitRate = float64(side.CacheHits) / float64(lookups)
	}
	if h := rec.Histogram("serve.batch.size"); h.Count() > 0 {
		side.MeanBatchSize = h.Mean()
	}
	return side, nil
}
