package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// LoadConfig parameterizes a load test against a running solve service:
// Clients concurrent clients each issue Requests requests in bursts of
// Burst, pausing a seeded-jittered Pause between bursts — the bursty
// arrival pattern admission control exists for.
type LoadConfig struct {
	// URL is the base URL of the service, e.g. "http://127.0.0.1:8080".
	URL string
	// Clients is the number of concurrent client goroutines.
	Clients int
	// Requests is issued per client.
	Requests int
	// Burst is how many requests each client fires back to back before
	// pausing; <= 1 means a steady stream.
	Burst int
	// Tenants spreads clients across this many tenant names; <= 1 puts
	// everyone on one tenant.
	Tenants int
	// Root, Level, Tol are the solve parameters of every request.
	Root, Level int
	Tol         float64
	// Deadline is each request's deadline; 0 leaves it to the server.
	Deadline time.Duration
	// Pause is the mean inter-burst pause; each pause is jittered
	// uniformly in [Pause/2, 3·Pause/2]. 0 means no pause.
	Pause time.Duration
	// Seed drives the per-client jitter; the same seed replays the same
	// arrival schedule (modulo scheduler timing).
	Seed int64
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Requests <= 0 {
		c.Requests = 8
	}
	if c.Burst <= 0 {
		c.Burst = 1
	}
	if c.Tenants <= 0 {
		c.Tenants = 1
	}
	if c.Root <= 0 {
		c.Root = 1
	}
	if c.Tol == 0 {
		c.Tol = 1e-2
	}
	if c.Pause == 0 {
		c.Pause = 10 * time.Millisecond
	}
	return c
}

// LoadResult is the outcome ledger and latency profile of one load run.
// Total always equals Completed+Shed+Failed+Errors — every request is
// accounted exactly once.
type LoadResult struct {
	Total     int
	Completed int
	Shed      int
	Failed    int
	// Errors counts transport-level failures (connection refused, bad
	// JSON) — requests the service never accounted.
	Errors int

	// P50, P95, P99, Max profile the latency of requests that got any
	// service response, sheds included.
	P50, P95, P99, Max time.Duration
	// Elapsed is the wall clock of the whole run.
	Elapsed time.Duration
	// Throughput is completed requests per second of wall clock.
	Throughput float64
}

// String renders the one-line summary the loadtest subcommand prints.
func (r LoadResult) String() string {
	return fmt.Sprintf(
		"requests=%d completed=%d shed=%d failed=%d errors=%d p50=%v p95=%v p99=%v max=%v elapsed=%v thru=%.2f/s",
		r.Total, r.Completed, r.Shed, r.Failed, r.Errors,
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond),
		r.Elapsed.Round(time.Millisecond), r.Throughput)
}

// RunLoad drives cfg against the service and aggregates the ledger. It is
// a library function so tests and the solved loadtest subcommand share it.
func RunLoad(cfg LoadConfig) LoadResult {
	cfg = cfg.withDefaults()
	type sample struct {
		status  string
		latency time.Duration
		err     bool
	}
	samples := make([][]sample, cfg.Clients)
	client := &http.Client{}

	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(ci)))
			tenant := fmt.Sprintf("tenant-%d", ci%cfg.Tenants)
			body, _ := json.Marshal(SolveRequest{
				Tenant: tenant, Root: cfg.Root, Level: cfg.Level, Tol: cfg.Tol,
				DeadlineMs: cfg.Deadline.Milliseconds(),
			})
			for n := 0; n < cfg.Requests; n++ {
				if n > 0 && n%cfg.Burst == 0 && cfg.Pause > 0 {
					half := cfg.Pause / 2
					time.Sleep(half + time.Duration(rng.Int63n(int64(2*half)+1)))
				}
				start := time.Now()
				resp, err := client.Post(cfg.URL+"/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					samples[ci] = append(samples[ci], sample{err: true})
					continue
				}
				var sr SolveResponse
				decErr := json.NewDecoder(resp.Body).Decode(&sr)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if decErr != nil {
					samples[ci] = append(samples[ci], sample{err: true})
					continue
				}
				samples[ci] = append(samples[ci], sample{status: sr.Status, latency: time.Since(start)})
			}
		}(i)
	}
	wg.Wait()

	res := LoadResult{Elapsed: time.Since(t0)}
	var lats []time.Duration
	for _, cs := range samples {
		for _, s := range cs {
			res.Total++
			switch {
			case s.err:
				res.Errors++
				continue
			case s.status == StatusCompleted:
				res.Completed++
			case s.status == StatusShed:
				res.Shed++
			default:
				res.Failed++
			}
			lats = append(lats, s.latency)
		}
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		q := func(p float64) time.Duration {
			i := int(p * float64(len(lats)-1))
			return lats[i]
		}
		res.P50, res.P95, res.P99, res.Max = q(0.50), q(0.95), q(0.99), lats[len(lats)-1]
	}
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.Throughput = float64(res.Completed) / secs
	}
	return res
}
