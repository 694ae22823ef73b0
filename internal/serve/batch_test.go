package serve

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/pde"
	"repro/internal/rosenbrock"
	"repro/internal/solver"
)

// batchConfig is the test server setup with the throughput layer on.
func batchConfig() Config {
	return Config{
		QueueDepth: 32, Executors: 2, Attempts: 1,
		BatchWindow: 2 * time.Millisecond, BatchSize: 4, BatchWorkers: 2,
	}
}

// TestBatchedBitIdentical is the cache-correctness oracle: solves through
// the batched+cached path — cold, then warm, across tenants — must be
// bit-for-bit identical to the legacy sequential program.
func TestBatchedBitIdentical(t *testing.T) {
	p := solver.Params{Root: 1, Level: 1, Tol: 1e-2, Problem: pde.PaperProblem()}
	ref, err := solver.Sequential(p)
	if err != nil {
		t.Fatal(err)
	}
	refU := ref.Combined.V.NormInf()

	s, ts := newTestServer(t, batchConfig())
	s.Start()

	const rounds, clients = 3, 4
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		resps := make([]SolveResponse, clients)
		errs := make([]error, clients)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, resps[i], _, errs[i] = tryPost(ts.URL, SolveRequest{
					Tenant: map[bool]string{true: "alpha", false: "beta"}[i%2 == 0],
					Root:   p.Root, Level: p.Level, Tol: p.Tol,
				}, nil)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d client %d: %v", round, i, err)
			}
			if resps[i].Status != StatusCompleted {
				t.Fatalf("round %d client %d: status %q (%s)", round, i, resps[i].Status, resps[i].Reason)
			}
			if math.Float64bits(resps[i].MaxU) != math.Float64bits(refU) {
				t.Fatalf("round %d client %d: batched max|u| = %x, sequential = %x",
					round, i, math.Float64bits(resps[i].MaxU), math.Float64bits(refU))
			}
			if resps[i].Flops != ref.TotalFlops {
				t.Fatalf("round %d client %d: flops %d != sequential %d", round, i, resps[i].Flops, ref.TotalFlops)
			}
		}
	}

	rec := s.Recorder()
	if hits := rec.Counter("serve.cache.hits").Value(); hits == 0 {
		t.Fatal("no cache hits across warm rounds")
	}
	if clean := s.Drain(time.Minute); !clean {
		t.Fatal("drain timed out")
	}
	checkLedger(t, s)
	checkBatchLedger(t, s)
}

// checkBatchLedger asserts the batching/caching counters mirror their
// events exactly, the same both-ways accounting the PR 7 ledger uses.
func checkBatchLedger(t *testing.T, s *Server) {
	t.Helper()
	rec := s.rec
	for _, p := range []struct {
		name string
		k    obs.Kind
	}{
		{"serve.batch.tasks", obs.KBatchTask},
		{"serve.batch.flushes", obs.KBatchFlush},
		{"serve.batch.steals", obs.KSteal},
		{"serve.cache.hits", obs.KCacheHit},
		{"serve.cache.misses", obs.KCacheMiss},
		{"serve.cache.evictions", obs.KCacheEvict},
		{"serve.exec.scales", obs.KExecScale},
	} {
		if c, e := rec.Counter(p.name).Value(), rec.KindCount(p.k); uint64(c) != e {
			t.Fatalf("ledger: counter %s=%d vs %d %v events", p.name, c, e, p.k)
		}
	}
	// Every task entered the batcher through some flush: flushed sizes sum
	// to the task count once the batcher is closed.
	tasks := rec.Counter("serve.batch.tasks").Value()
	if sum := rec.Histogram("serve.batch.size").Sum(); sum != tasks {
		t.Fatalf("ledger: flushed batch sizes sum to %d, %d tasks enqueued", sum, tasks)
	}
}

// TestCacheEvictionBounds drives the solver cache past its entry and byte
// bounds and checks evictions are counted, emitted, and effective.
func TestCacheEvictionBounds(t *testing.T) {
	problem := pde.PaperProblem()
	fam := grid.Family(2, 2) // 5 distinct shapes
	rec := obs.NewRecorder(0)
	c := newSolverCache(Config{CacheEntries: 2, CacheBytes: 1 << 60}, rec, problem)
	for _, g := range fam {
		sig := signature{g: g, lin: rosenbrock.BiCGStab}
		c.put(c.build(sig, sig.String()))
	}
	if got := c.lru.Len(); got != 2 {
		t.Fatalf("entry bound: %d parked entries, want 2", got)
	}
	wantEvicts := int64(len(fam) - 2)
	if got := rec.Counter("serve.cache.evictions").Value(); got != wantEvicts {
		t.Fatalf("evictions = %d, want %d", got, wantEvicts)
	}
	if got := rec.KindCount(obs.KCacheEvict); got != uint64(wantEvicts) {
		t.Fatalf("evict events = %d, want %d", got, wantEvicts)
	}
	if got := rec.Gauge("serve.cache.entries").Value(); got != 2 {
		t.Fatalf("entries gauge = %d, want 2", got)
	}

	// Byte bound: a 1-byte budget keeps exactly one entry (the cache never
	// evicts its last) and evicts on every further put.
	rec2 := obs.NewRecorder(0)
	c2 := newSolverCache(Config{CacheEntries: 64, CacheBytes: 1}, rec2, problem)
	for _, g := range fam[:2] {
		sig := signature{g: g, lin: rosenbrock.BiCGStab}
		c2.put(c2.build(sig, sig.String()))
	}
	if got := c2.lru.Len(); got != 1 {
		t.Fatalf("byte bound: %d parked entries, want 1", got)
	}
	if got := rec2.Counter("serve.cache.evictions").Value(); got != 1 {
		t.Fatalf("byte bound evictions = %d, want 1", got)
	}

	// Checkout is exclusive and warm: a take returns the parked entry
	// itself and records a hit; a second take of the same signature misses.
	sig := signature{g: fam[1], lin: rosenbrock.BiCGStab}
	e := c2.take(sig, sig.String())
	if e == nil || e.sig != sig {
		t.Fatalf("take(%v) = %v, want the parked entry", sig, e)
	}
	if c2.take(sig, sig.String()) != nil {
		t.Fatal("second take of a checked-out signature must miss")
	}
	if hits, misses := rec2.Counter("serve.cache.hits").Value(), rec2.Counter("serve.cache.misses").Value(); hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1 and 1", hits, misses)
	}
}

// TestBatcherFlushReasons exercises each flush trigger of the batcher
// state machine directly, without workers: size, age, deadline, close.
func TestBatcherFlushReasons(t *testing.T) {
	mk := func(window, margin time.Duration, size int) (*batcher, *obs.Recorder) {
		rec := obs.NewRecorder(0)
		cfg := Config{BatchWindow: window, BatchMargin: margin, BatchSize: size, QueueDepth: 16}
		b := newBatcher(cfg, rec, newSolverCache(cfg.withDefaults(), rec, pde.PaperProblem()), time.Now)
		return b, rec
	}
	task := func(deadline time.Time) (*subTask, chan subResult) {
		sig := signature{g: grid.Grid{Root: 1}, lin: rosenbrock.BiCGStab}
		out := make(chan subResult, 1)
		return &subTask{sig: sig, sigStr: sig.String(), deadline: deadline, out: out}, out
	}
	lastFlush := func(rec *obs.Recorder) (string, bool) {
		for _, e := range rec.Events() {
			if e.Kind == obs.KBatchFlush {
				return e.Aux, true
			}
		}
		return "", false
	}

	// Size: the maxSize-th enqueue flushes immediately.
	b, rec := mk(time.Hour, time.Millisecond, 2)
	far := time.Now().Add(time.Hour)
	for i := 0; i < 2; i++ {
		tk, _ := task(far)
		if err := b.enqueue(tk); err != nil {
			t.Fatal(err)
		}
	}
	if aux, ok := lastFlush(rec); !ok || aux != "size" {
		t.Fatalf("size flush: got (%q, %v)", aux, ok)
	}

	// Age: the window expires with the deadline far away.
	b, rec = mk(5*time.Millisecond, time.Millisecond, 100)
	if tk, _ := task(far); b.enqueue(tk) != nil {
		t.Fatal("enqueue failed")
	}
	waitFor(t, "age flush", func() bool { _, ok := lastFlush(rec); return ok })
	if aux, _ := lastFlush(rec); aux != "age" {
		t.Fatalf("age flush: got %q", aux)
	}

	// Deadline: a tight member deadline caps a long window.
	b, rec = mk(time.Hour, 2*time.Millisecond, 100)
	if tk, _ := task(time.Now().Add(10 * time.Millisecond)); b.enqueue(tk) != nil {
		t.Fatal("enqueue failed")
	}
	waitFor(t, "deadline flush", func() bool { _, ok := lastFlush(rec); return ok })
	if aux, _ := lastFlush(rec); aux != "deadline" {
		t.Fatalf("deadline flush: got %q", aux)
	}

	// Close: pending tasks flush with reason "close" and fail.
	b, rec = mk(time.Hour, time.Millisecond, 100)
	tk, tkOut := task(far)
	if err := b.enqueue(tk); err != nil {
		t.Fatal(err)
	}
	b.close(true)
	if aux, _ := lastFlush(rec); aux != "close" {
		t.Fatalf("close flush: got %q", aux)
	}
	select {
	case r := <-tkOut:
		if r.err != errBatcherClosed {
			t.Fatalf("closed task error = %v", r.err)
		}
	default:
		t.Fatal("closed task got no result")
	}
	if tk2, _ := task(far); b.enqueue(tk2) != errBatcherClosed {
		t.Fatal("enqueue after close must fail with errBatcherClosed")
	}
}

// TestBatchSteal pins the batch work-stealing path deterministically: only
// the worker that is NOT the signature's affinity home is started, so every
// batch it runs must have been stolen off the home deque. Results still
// arrive intact, and the steal counter and solver.steal event tally agree
// exactly with the number of flushed batches.
func TestBatchSteal(t *testing.T) {
	cfg := Config{
		BatchWindow: time.Hour, BatchMargin: time.Millisecond,
		BatchSize: 1, BatchWorkers: 2, QueueDepth: 16,
	}.withDefaults()
	rec := obs.NewRecorder(0)
	b := newBatcher(cfg, rec, newSolverCache(cfg, rec, pde.PaperProblem()), time.Now)

	g := grid.Family(1, 0)[0]
	sig := signature{g: g, lin: rosenbrock.BiCGStab}
	thief := (b.home(sig.String()) + 1) % len(b.deques)
	b.wg.Add(1)
	go b.worker(thief)

	const batches = 3
	out := make(chan subResult, batches)
	for i := 0; i < batches; i++ {
		tk := &subTask{
			sig: sig, sigStr: sig.String(), idx: i, tol: 1e-2,
			deadline: time.Now().Add(time.Minute), out: out,
		}
		if err := b.enqueue(tk); err != nil { // BatchSize=1: flushes at once
			t.Fatal(err)
		}
	}
	for i := 0; i < batches; i++ {
		select {
		case r := <-out:
			if r.err != nil {
				t.Fatalf("stolen batch %d failed: %v", r.idx, r.err)
			}
		case <-time.After(time.Minute):
			t.Fatal("stolen batch result never arrived")
		}
	}
	if got := rec.Counter("serve.batch.steals").Value(); got != batches {
		t.Fatalf("serve.batch.steals = %d, want %d", got, batches)
	}
	if got := rec.KindCount(obs.KSteal); got != batches {
		t.Fatalf("solver.steal events = %d, want %d", got, batches)
	}
	b.close(true)
}

// TestBatchTakeKeepsToken replays the interleaving that used to strand a
// batch, move by move. Worker 0 takes the token of B1 (home deque 2), finds
// its own deque empty, and is held at deque 1 — the test owns that deque's
// lock from inside a StealIf predicate. Meanwhile B2 lands on deque 0,
// which worker 0 has already passed, and worker 2 spends B2's token on B1
// from its own deque. Released, worker 0 finds deques 1 and 2 empty. It
// still holds a token and B2 is still queued: it must sweep again, not go
// back to sleep — nobody else will ever be woken for B2.
func TestBatchTakeKeepsToken(t *testing.T) {
	cfg := Config{
		BatchWindow: time.Hour, BatchMargin: time.Millisecond,
		BatchSize: 1, BatchWorkers: 3, QueueDepth: 16,
	}.withDefaults()
	rec := obs.NewRecorder(0)
	b := newBatcher(cfg, rec, newSolverCache(cfg, rec, pde.PaperProblem()), time.Now)
	homed := func(home int) signature {
		for root := 1; root <= 4; root++ {
			for _, g := range grid.Family(root, 1) {
				if sig := (signature{g: g, lin: rosenbrock.BiCGStab}); b.home(sig.String()) == home {
					return sig
				}
			}
		}
		t.Fatalf("no test signature routes to deque %d", home)
		return signature{}
	}
	out := make(chan subResult, 2)
	task := func(idx int, sig signature) *subTask {
		return &subTask{sig: sig, sigStr: sig.String(), idx: idx, tol: 1e-2, deadline: time.Now().Add(time.Minute), out: out}
	}
	await := func(what string, idx int) {
		t.Helper()
		select {
		case r := <-out:
			if r.err != nil || r.idx != idx {
				t.Fatalf("%s: got result %d, err %v", what, r.idx, r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: stranded — queued with no token and no worker looking", what)
		}
	}

	// Own deque 1's lock: a placeholder item gives StealIf something to
	// show the predicate, which blocks until released and then removes it.
	b.deques[1].Push(nil)
	held, release := make(chan struct{}), make(chan struct{})
	go b.deques[1].StealIf(func([]*subTask) bool { close(held); <-release; return true })
	<-held

	b.wg.Add(1)
	go b.worker(0)
	if err := b.enqueue(task(1, homed(2))); err != nil { // B1
		t.Fatal(err)
	}
	waitFor(t, "worker 0 to take B1's token", func() bool { return len(b.tokens) == 0 })
	for i := 0; i < 1000; i++ {
		runtime.Gosched() // let it pass its own deque and reach the held lock
	}

	b.wg.Add(1)
	go b.worker(2)
	if err := b.enqueue(task(2, homed(0))); err != nil { // B2, behind worker 0's back
		t.Fatal(err)
	}
	await("B1 on worker 2", 1)
	close(release)
	await("B2", 2)
	b.close(true)
	checkBatchLedger(t, &Server{rec: rec})
}

// TestBatchTokensNeverStrand is the regression test of the stranded batch:
// with several batch workers a token holder whose sweep raced another
// worker's pop used to give its token up, leaving one queued batch with no
// token to wake anyone — every later token then ran an older batch and
// stranded a newer one, until the requests died on their deadlines.
// Closed-loop clients hammer 2-4 workers with one-task batches of one hot
// and several mixed signatures: every result must arrive, in time.
func TestBatchTokensNeverStrand(t *testing.T) {
	var sigs []signature
	for _, g := range grid.Family(1, 1) {
		for _, lin := range []rosenbrock.LinearSolver{rosenbrock.BiCGStab, rosenbrock.GMRES} {
			sigs = append(sigs, signature{g: g, lin: lin})
		}
	}
	for workers := 2; workers <= 4; workers++ {
		cfg := Config{
			BatchWindow: time.Hour, BatchMargin: time.Millisecond,
			BatchSize: 1, BatchWorkers: workers, QueueDepth: 64,
		}.withDefaults()
		rec := obs.NewRecorder(0)
		b := newBatcher(cfg, rec, newSolverCache(cfg, rec, pde.PaperProblem()), time.Now)
		b.start()

		const clients, perClient = 8, 400
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				out := make(chan subResult, 1)
				for i := 0; i < perClient; i++ {
					sig := sigs[0] // even clients share the hot signature
					if c%2 == 1 {
						sig = sigs[(c+i)%len(sigs)]
					}
					tk := &subTask{
						sig: sig, sigStr: sig.String(), tol: 1e-2,
						deadline: time.Now().Add(2 * time.Second), out: out,
					}
					if err := b.enqueue(tk); err != nil { // BatchSize=1: one batch, one token
						errs <- err
						return
					}
					select {
					case r := <-out:
						if r.err != nil {
							errs <- r.err
							return
						}
					case <-time.After(10 * time.Second):
						errs <- errors.New("batch stranded: no worker ever ran it")
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("%d workers: %v", workers, err)
		}
		b.close(true)
		if got := rec.Counter("serve.batch.tasks").Value(); got != clients*perClient {
			t.Errorf("%d workers: %d tasks accounted, want %d", workers, got, clients*perClient)
		}
		checkBatchLedger(t, &Server{rec: rec})
	}
}

// TestAutoscaler checks the pool grows with queued estimated work, shrinks
// back when it drains, and accounts every resize.
func TestAutoscaler(t *testing.T) {
	s, _ := newTestServer(t, Config{
		Executors: 1, MaxExecutors: 3,
		ScaleEvery: time.Millisecond, ScaleQuantumMc: 100,
	})
	s.Start()
	workers := s.rec.Gauge("serve.exec.workers")
	target := s.rec.Gauge("serve.exec.target")

	s.queuedMc.Store(1000) // far beyond one quantum: desired = cap
	waitFor(t, "scale-up", func() bool { return workers.Value() == 3 && target.Value() == 3 })

	s.queuedMc.Store(0)
	waitFor(t, "scale-down", func() bool { return workers.Value() == 1 && target.Value() == 1 })

	if scales := s.rec.Counter("serve.exec.scales").Value(); scales < 2 {
		t.Fatalf("scales = %d, want >= 2", scales)
	}
	if clean := s.Drain(time.Minute); !clean {
		t.Fatal("drain timed out")
	}
	checkBatchLedger(t, s)
}

// TestDesiredExecutorsClamps pins the autoscaler's target arithmetic.
func TestDesiredExecutorsClamps(t *testing.T) {
	s := NewServer(Config{Executors: 2, MaxExecutors: 5, ScaleQuantumMc: 10})
	for _, tc := range []struct {
		mc   int64
		want int
	}{
		{0, 2}, {1, 3}, {10, 3}, {11, 4}, {1000, 5},
	} {
		s.queuedMc.Store(tc.mc)
		if got := s.desiredExecutors(); got != tc.want {
			t.Fatalf("desired(%d mc) = %d, want %d", tc.mc, got, tc.want)
		}
	}
}

// TestBatchedDrain: a drain with the throughput layer on stays clean and
// keeps the exactly-once ledger, and a draining server sheds instead of
// batching.
func TestBatchedDrain(t *testing.T) {
	s, ts := newTestServer(t, batchConfig())
	s.Start()
	if _, resp, _, err := tryPost(ts.URL, SolveRequest{Root: 1, Level: 0, Tol: 1e-2}, nil); err != nil || resp.Status != StatusCompleted {
		t.Fatalf("pre-drain solve: status %v err %v", resp.Status, err)
	}
	if clean := s.Drain(time.Minute); !clean {
		t.Fatal("drain timed out")
	}
	if _, resp, _, err := tryPost(ts.URL, SolveRequest{Root: 1, Level: 0, Tol: 1e-2}, nil); err != nil || resp.Status != StatusShed {
		t.Fatalf("post-drain solve: status %v err %v", resp.Status, err)
	}
	checkLedger(t, s)
	checkBatchLedger(t, s)
}
