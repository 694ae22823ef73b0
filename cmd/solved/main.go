// Command solved runs the multi-tenant solve service: a long-running HTTP
// server that accepts solve jobs (POST /solve), admission-controls them
// per tenant, solves them through the cross-request batcher and the solver
// cache on one pool of executors, and retries failed attempts under a
// seeded backoff within the request's deadline. -faults injects faults into
// the batched flights the executors run. GET /metrics and GET /healthz
// expose the live counters and drain state.
//
//	solved -addr :8080 -queue 64 -executors 2 -tenant-rate 5 -max-inflight 4
//	curl -XPOST -H 'X-Tenant: alice' -H 'X-Deadline-Ms: 5000' \
//	     -d '{"root":2,"level":3,"tol":1e-3}' localhost:8080/solve
//
// SIGTERM or SIGINT triggers the graceful drain: admission stops (503
// "draining"), queued jobs are shed, inflight jobs finish within
// -drain-timeout, and the observability exports flush before exit.
//
// The loadtest subcommand drives a bursty multi-client load against a
// running service — or, with -self, against an in-process one — and
// prints the outcome ledger with p50/p95/p99 latencies:
//
//	solved loadtest -self -clients 8 -requests 10 -burst 4 -faults 'seed=7,panic=0.3'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

func main() { os.Exit(run()) }

func run() int {
	if len(os.Args) > 1 && os.Args[1] == "loadtest" {
		return runLoadtest(os.Args[2:])
	}
	return runServe(os.Args[1:])
}

// serveFlags registers the service configuration on fs and returns a
// closure resolving it to a serve.Config — shared by the serve mode and
// loadtest -self.
func serveFlags(fs *flag.FlagSet) func() (serve.Config, error) {
	var (
		queue     = fs.Int("queue", 64, "admission queue depth; a full queue sheds with 503")
		executors = fs.Int("executors", max(2, runtime.GOMAXPROCS(0)), "the pool: goroutines running requests and every batched subsolve")
		rate      = fs.Float64("tenant-rate", 0, "per-tenant token refill rate per second (0 = unlimited)")
		burst     = fs.Float64("tenant-burst", 8, "per-tenant token-bucket capacity")
		inflight  = fs.Int("max-inflight", 0, "per-tenant inflight request cap (0 = unlimited)")
		brkN      = fs.Int("breaker-threshold", 3, "consecutive failed requests tripping a tenant's circuit breaker (0 = breaker off)")
		brkCool   = fs.Duration("breaker-cooldown", 5*time.Second, "how long a tripped breaker stays open before a half-open probe")
		attempts  = fs.Int("attempts", 2, "solve attempts per request; attempts after the first are paced by the backoff")
		ddl       = fs.Duration("default-deadline", 30*time.Second, "request deadline when the client sends none")
		maxLevel  = fs.Int("max-level", 6, "largest refinement level the service accepts")
		boSeed    = fs.Int64("backoff-seed", 1, "seed of the retry backoff jitter")
		boBase    = fs.Duration("backoff-base", core.DefaultBackoffBase, "base delay of the exponential retry backoff")
		boMax     = fs.Duration("backoff-max", core.DefaultBackoffMax, "delay ceiling of the retry backoff")
		faults    = fs.String("faults", "", "fault injection spec, e.g. 'seed=42,panic=0.2,hang=0.1,corrupt=0.1,hangfor=100ms'; one fault is drawn for every batched flight an executor runs")

		cacheN     = fs.Int("cache-entries", 64, "solver-cache entry bound")
		cacheBytes = fs.Int64("cache-bytes", 256<<20, "solver-cache approximate byte budget")
	)
	return func() (serve.Config, error) {
		cfg := serve.Config{
			QueueDepth: *queue, Executors: *executors,
			TenantRate: *rate, TenantBurst: *burst, MaxInflight: *inflight,
			BreakerThreshold: *brkN, BreakerCooldown: *brkCool,
			Attempts: *attempts, DefaultDeadline: *ddl, MaxLevel: *maxLevel,
			CacheEntries: *cacheN, CacheBytes: *cacheBytes,
			Backoff: core.NewBackoff(*boSeed, *boBase, *boMax),
		}
		if *faults != "" {
			inj, err := core.ParseFaultSpec(*faults)
			if err != nil {
				return serve.Config{}, err
			}
			cfg.Faults = inj
		}
		return cfg, nil
	}
}

func runServe(args []string) int {
	fs := flag.NewFlagSet("solved", flag.ExitOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		drainTO  = fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for inflight jobs")
		traceOut = fs.String("trace", "", "write the service's events as a chronological trace on exit ('-' = stdout)")
		timeline = fs.String("timeline", "", "write the service's events as a JSON-lines timeline on exit ('-' = stdout)")
		metrics  = fs.String("metrics", "", "write the metrics summary on exit ('-' = stdout)")
	)
	cfgOf := serveFlags(fs)
	fs.Parse(args)
	cfg, err := cfgOf()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	srv := serve.NewServer(cfg)
	srv.Start()
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() {
		err := httpSrv.ListenAndServe()
		if !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Printf("solved: listening on %s (queue=%d executors=%d)\n", *addr, cfg.QueueDepth, cfg.Executors)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	code := 0
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "solved:", err)
		code = 1
	case s := <-sig:
		fmt.Printf("solved: %v — draining (timeout %v)\n", s, *drainTO)
		clean := srv.Drain(*drainTO)
		// Drain settled every admitted job, so open handlers only need to
		// write their responses; give Shutdown a short grace for that.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		httpSrv.Shutdown(ctx)
		cancel()
		if clean {
			fmt.Println("solved: drain complete")
		} else {
			fmt.Println("solved: drain timed out with jobs still running")
			code = 1
		}
	}
	rec := srv.Recorder()
	export(*traceOut, rec.WriteTrace)
	export(*timeline, rec.WriteJSONL)
	export(*metrics, rec.WriteMetrics)
	return code
}

func runLoadtest(args []string) int {
	fs := flag.NewFlagSet("solved loadtest", flag.ExitOnError)
	var (
		url      = fs.String("url", "", "base URL of a running service (empty with -self)")
		self     = fs.Bool("self", false, "start an in-process service on 127.0.0.1:0 and load it")
		clients  = fs.Int("clients", 4, "concurrent clients")
		requests = fs.Int("requests", 8, "requests per client")
		burstN   = fs.Int("burst", 4, "requests fired back to back before an inter-burst pause")
		tenants  = fs.Int("tenants", 2, "tenant names the clients are spread across")
		root     = fs.Int("root", 1, "solve root level")
		level    = fs.Int("level", 1, "solve refinement level")
		tol      = fs.Float64("tol", 1e-2, "solve tolerance")
		deadline = fs.Duration("deadline", 0, "per-request deadline (0 = server default)")
		pause    = fs.Duration("pause", 10*time.Millisecond, "mean inter-burst pause")
		seed     = fs.Int64("seed", 1, "arrival-jitter seed")
		timeline = fs.String("timeline", "", "with -self: write the server's JSON-lines timeline after the run ('-' = stdout)")
	)
	cfgOf := serveFlags(fs)
	fs.Parse(args)

	lc := serve.LoadConfig{
		Clients: *clients, Requests: *requests, Burst: *burstN,
		Tenants: *tenants, Root: *root, Level: *level, Tol: *tol,
		Deadline: *deadline, Pause: *pause, Seed: *seed,
	}
	var srv *serve.Server
	base := *url
	if *self {
		cfg, err := cfgOf()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		srv = serve.NewServer(cfg)
		srv.Start()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		go httpSrv.Serve(ln)
		defer httpSrv.Close()
		base = "http://" + ln.Addr().String()
		fmt.Printf("loadtest: self-hosted service on %s\n", base)
	}
	if base == "" {
		fmt.Fprintln(os.Stderr, "loadtest: need -url or -self")
		return 2
	}

	lc.URL = base
	res := serve.RunLoad(lc)
	fmt.Println(res)
	if *self {
		clean := srv.Drain(time.Minute)
		if !clean {
			fmt.Fprintln(os.Stderr, "loadtest: drain timed out")
			return 1
		}
		export(*timeline, srv.Recorder().WriteJSONL)
	}
	if res.Errors > 0 {
		fmt.Fprintf(os.Stderr, "loadtest: %d transport errors\n", res.Errors)
		return 1
	}
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
