package serve

import (
	"errors"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/pde"
	"repro/internal/rosenbrock"
	"repro/internal/solver"
)

// batchConfig is the test server setup of the batching tests.
func batchConfig() Config {
	return Config{QueueDepth: 32, Executors: 2, Attempts: 1}
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
		{"serve.batch.coalesced", obs.KBatchCoalesce},
		{"serve.cache.hits", obs.KCacheHit},
		{"serve.cache.misses", obs.KCacheMiss},
		{"serve.cache.evictions", obs.KCacheEvict},
	} {
		if c, e := rec.Counter(p.name).Value(), rec.KindCount(p.k); uint64(c) != e {
			t.Fatalf("ledger: counter %s=%d vs %d %v events", p.name, c, e, p.k)
		}
	}
	// Every task entered the batcher as a queued leader or as a rider.
	tasks, leaders, riders := rec.Counter("serve.batch.tasks").Value(), rec.KindCount(obs.KBatchTask), rec.KindCount(obs.KBatchCoalesce)
	if uint64(tasks) != leaders+riders {
		t.Fatalf("ledger: counter serve.batch.tasks=%d vs %d %v + %d %v events", tasks, leaders, obs.KBatchTask, riders, obs.KBatchCoalesce)
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

// solveGate holds an executor inside a solve — cache entry checked out,
// signature claimed — for as long as a test needs it busy. It sits in the
// problem's initial condition, which every subsolve samples first and
// which leaves flops and results untouched.
type solveGate struct {
	armed   chan chan struct{} // one release channel per solve to stop
	entered chan struct{}      // one token per solve stopped
}

// gateProblem wraps p.Initial in place, so it also gates a Server whose
// cache already points at p.
func gateProblem(p *pde.Problem) *solveGate {
	// Buffers sized to the most gates any one test holds at a time.
	g := &solveGate{armed: make(chan chan struct{}, 3), entered: make(chan struct{}, 3)}
	initial := p.Initial
	p.Initial = func(x, y float64) float64 {
		select {
		case release := <-g.armed:
			g.entered <- struct{}{}
			<-release
		default:
		}
		return initial(x, y)
	}
	return g
}

// arm makes the next solve that starts stop in the gate (it announces
// itself on entered) until the returned release is called; calling it
// again is harmless, so a test can also defer it and fail without hanging.
func (g *solveGate) arm() (release func()) {
	ch := make(chan struct{})
	g.armed <- ch
	return sync.OnceFunc(func() { close(ch) })
}

// testPool is a Server nobody talks HTTP to: its executors — started by the
// test — are the pool under test, tasks go straight into its batcher, and
// the gate sits in its problem.
func testPool(cfg Config) (*Server, *solveGate) {
	s := NewServer(cfg)
	return s, gateProblem(s.problem)
}

// drainPool stops a testPool: the batcher closes, the executors are joined,
// and nothing is left behind.
func drainPool(t *testing.T, s *Server) {
	t.Helper()
	if !s.Drain(time.Minute) {
		t.Fatal("drain timed out")
	}
	checkIdle(t, s)
}

// testTask is a deadline-free task of the given shape.
func testTask(sig signature, idx int, out chan<- subResult) *subTask {
	return &subTask{sig: sig, idx: idx, tol: 1e-2, abandoned: new(atomic.Bool), out: out}
}

// ownTol gives a task the n-th tolerance above 1e-2, so that tasks of one
// signature are different questions: two flights, neither rides the other's.
func ownTol(tk *subTask, n int) *subTask {
	tk.tol = math.Float64frombits(math.Float64bits(1e-2) + uint64(n))
	return tk
}

// testSigs returns n distinct small signatures.
func testSigs(n int) []signature {
	var sigs []signature
	for _, lin := range []rosenbrock.LinearSolver{rosenbrock.BiCGStab, rosenbrock.ILU} {
		for _, g := range grid.Family(1, 1) {
			sigs = append(sigs, signature{g: g, lin: lin})
		}
	}
	return sigs[:n]
}

// subsolves maps each actor to the grids it solved, in order.
func subsolves(rec *obs.Recorder) map[string][]string {
	by := make(map[string][]string)
	for _, e := range rec.Events() {
		if e.Kind == obs.KSubsolveBegin {
			by[e.Actor] = append(by[e.Actor], e.Aux)
		}
	}
	return by
}

// await receives n results, failing on an error or a stall.
func await(t *testing.T, what string, out <-chan subResult, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case r := <-out:
			if r.err != nil {
				t.Fatalf("%s: task %d failed: %v", what, r.idx, r.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: result %d of %d never arrived", what, i+1, n)
		}
	}
}

// entered waits for n solves to be held in the gate at once.
func entered(t *testing.T, gate *solveGate, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-gate.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d subsolves in flight: an executor sleeps while a batch is pending", i, n)
		}
	}
}

// sameAnswer fails unless a response carries the reference run's answer
// bit for bit.
func sameAnswer(t *testing.T, what string, resp SolveResponse, ref *solver.Output) {
	t.Helper()
	if resp.Status != StatusCompleted {
		t.Fatalf("%s: status %q (%s)", what, resp.Status, resp.Reason)
	}
	if u := ref.Combined.V.NormInf(); math.Float64bits(resp.MaxU) != math.Float64bits(u) || resp.Flops != ref.TotalFlops {
		t.Fatalf("%s: max|u| %x flops %d, sequential %x and %d", what, math.Float64bits(resp.MaxU), resp.Flops, math.Float64bits(u), ref.TotalFlops)
	}
}

// TestBatchIdlePullNoTimer: an idle executor takes a lone task at once. The
// injected clock never moves, so a result can only arrive if nothing on the
// path waits for time to pass.
func TestBatchIdlePullNoTimer(t *testing.T) {
	frozen := time.Now()
	s, _ := testPool(Config{Executors: 1, Now: func() time.Time { return frozen }})
	s.Start()
	sig := testSigs(1)[0]
	out := make(chan subResult, 1)
	if err := s.batch.enqueue(testTask(sig, 0, out)); err != nil {
		t.Fatal(err)
	}
	await(t, "lone task", out, 1)
	drainPool(t, s)
	if got := subsolves(s.rec)["exec-0"]; !slices.Equal(got, []string{sig.g.String()}) {
		t.Fatalf("exec-0 solved %v, want the lone task's grid %v once", got, sig.g)
	}
	checkBatchLedger(t, s)
}

// TestBatchQueueOrder: the queue is first in, first out. A family fanned out
// by solveBatched — here on a pool whose only runner is the caller — is begun
// as it was enqueued, largest grid first; and flights A, B and C, enqueued
// while the lone executor is held inside another solve, are begun in that
// order when it comes free.
func TestBatchQueueOrder(t *testing.T) {
	s, gate := testPool(Config{Executors: 1})
	p := solver.Params{Root: 2, Level: 2, Tol: 1e-2, Problem: s.problem}
	j := &job{id: 1, lin: rosenbrock.BiCGStab, deadline: time.Now().Add(time.Minute)}
	if _, err := s.solveBatched("caller", j, nil, p); err != nil {
		t.Fatal(err)
	}
	fam := grid.Family(p.Root, p.Level)
	order := solver.LargestFirst(fam, p.Tol)
	var want []string
	for _, i := range order {
		want = append(want, fam[i].String())
	}
	if got := subsolves(s.rec)["caller"]; !slices.Equal(got, want) {
		t.Fatalf("family begun as %v, want largest first: %v", got, want)
	}

	s.Start()
	sigs := testSigs(4) // the last shares its grid with the first, under another solver
	out := make(chan subResult, len(sigs))
	release := gate.arm()
	defer release()
	want = nil
	for n, sig := range []signature{sigs[3], sigs[1], sigs[2], sigs[0]} {
		if err := s.batch.enqueue(testTask(sig, n, out)); err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			entered(t, gate, 1) // the executor is held inside the first; the rest queue
		}
		want = append(want, sig.g.String())
	}
	release()
	await(t, "held and queued tasks", out, len(sigs))
	drainPool(t, s)
	if got := subsolves(s.rec)["exec-0"]; !slices.Equal(got, want) {
		t.Fatalf("flights begun as %v, want as enqueued: %v", got, want)
	}
	checkBatchLedger(t, s)
}

// TestBatchFailedTaskDropsEntry: the (Disc, Workspace) pair a failed
// subsolve ran on is not parked again. A solve, poisoned through the
// problem's initial condition, dies mid-integration on a warm entry; the
// entry must be gone — accounted as an eviction, gauges at zero — and the
// next task of that signature must miss, assemble afresh and return the first
// solve's answer bit for bit.
func TestBatchFailedTaskDropsEntry(t *testing.T) {
	s := NewServer(Config{Executors: 1})
	rec := s.rec
	var poison atomic.Bool
	initial := s.problem.Initial
	s.problem.Initial = func(x, y float64) float64 {
		if poison.Load() {
			return math.NaN()
		}
		return initial(x, y)
	}
	s.Start()
	sig := testSigs(1)[0]
	solve := func() subResult {
		t.Helper()
		out := make(chan subResult, 1)
		if err := s.batch.enqueue(testTask(sig, 0, out)); err != nil {
			t.Fatal(err)
		}
		return recv(t, "subsolve", out)
	}
	counts := func() (hits, misses, evicts, entries, bytes int64) {
		return rec.Counter("serve.cache.hits").Value(), rec.Counter("serve.cache.misses").Value(),
			rec.Counter("serve.cache.evictions").Value(), rec.Gauge("serve.cache.entries").Value(), rec.Gauge("serve.cache.bytes").Value()
	}

	first := solve()
	if first.err != nil {
		t.Fatalf("clean solve failed: %v", first.err)
	}
	// The result is sent after the entry is parked, so the gauges are final.
	if _, _, _, entries, _ := counts(); entries != 1 {
		t.Fatalf("after a clean solve: %d entries parked, want 1", entries)
	}
	poison.Store(true)
	if r := solve(); r.err == nil {
		t.Fatal("poisoned solve succeeded")
	}
	poison.Store(false)
	if hits, misses, evicts, entries, bytes := counts(); hits != 1 || misses != 1 || evicts != 1 || entries != 0 || bytes != 0 {
		t.Fatalf("after the failed solve: hits=%d misses=%d evictions=%d entries=%d bytes=%d, want 1 1 1 0 0", hits, misses, evicts, entries, bytes)
	}
	again := solve()
	if again.err != nil {
		t.Fatalf("solve after the failure failed: %v", again.err)
	}
	if hits, misses, _, entries, _ := counts(); hits != 1 || misses != 2 || entries != 1 {
		t.Fatalf("after the next solve: hits=%d misses=%d entries=%d, want 1 2 1: it must not find the failed entry", hits, misses, entries)
	}
	if again.res.Stats != first.res.Stats || len(again.res.U) != len(first.res.U) {
		t.Fatalf("stats after the failure %+v, first solve %+v", again.res.Stats, first.res.Stats)
	}
	for i, u := range first.res.U {
		if math.Float64bits(again.res.U[i]) != math.Float64bits(u) {
			t.Fatalf("U[%d] = %v after the failure, %v on the first solve", i, again.res.U[i], u)
		}
	}
	drainPool(t, s)
	checkBatchLedger(t, s)
}

// TestBatchPanicBecomesTaskError: a flight that panics — here a planned
// fault, on a warm entry — fails its task, not the process. The entry it
// ran on is dropped (an eviction, Aux "failed"), the request goes round
// runJob's attempt loop, and the retry misses, assembles afresh and answers
// bit-identically to the sequential program.
func TestBatchPanicBecomesTaskError(t *testing.T) {
	// The warm-up's one flight runs clean, the next one panics.
	s, ts := newTestServer(t, Config{Executors: 1, Attempts: 2, Faults: core.PlanFaults(0, core.FaultNone, core.FaultPanic)})
	s.Start()
	p := solver.Params{Root: 1, Level: 0, Tol: 1e-2, Problem: pde.PaperProblem()}
	ref, err := solver.Sequential(p)
	if err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{Root: p.Root, Level: p.Level, Tol: p.Tol}

	_, warm, _ := postSolve(t, ts.URL, req, nil)
	sameAnswer(t, "warm-up", warm, ref)
	_, resp, _ := postSolve(t, ts.URL, req, nil)
	sameAnswer(t, "request whose first attempt panicked", resp, ref)
	if resp.Attempts != 2 || resp.Failures != 1 {
		t.Fatalf("attempts=%d failures=%d, want 2 and 1: the panic is one failed attempt", resp.Attempts, resp.Failures)
	}
	rec := s.rec
	if hits, misses := rec.Counter("serve.cache.hits").Value(), rec.Counter("serve.cache.misses").Value(); hits != 1 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 1 and 2: the retry must not find the entry the panic ran on", hits, misses)
	}
	if dropped := failedDrops(rec); dropped != 1 || rec.Gauge("serve.cache.entries").Value() != 1 {
		t.Fatalf("%d entries dropped as failed, %d parked, want 1 and 1", dropped, rec.Gauge("serve.cache.entries").Value())
	}
	drainPool(t, s)
	checkLedger(t, s)
	checkBatchLedger(t, s)
}

// TestBatchLoneRequestFansOut: one request alone on a pool of four is run
// by all of it. Its seven subsolves stop in the gate until three are in
// flight at once, which only executors with no job of their own can make
// happen — none of them sleeps while a batch is pending. The family enters
// the queue, which executors take oldest first, in solver.LargestFirst order.
func TestBatchLoneRequestFansOut(t *testing.T) {
	s, ts := newTestServer(t, Config{Executors: 4})
	gate := gateProblem(s.problem)
	s.Start()
	p := solver.Params{Root: 1, Level: 3, Tol: 1e-2, Problem: pde.PaperProblem()}
	ref, err := solver.Sequential(p)
	if err != nil {
		t.Fatal(err)
	}
	releases := []func(){gate.arm(), gate.arm(), gate.arm()}
	for _, release := range releases {
		defer release()
	}
	type reply struct {
		resp SolveResponse
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		_, resp, _, err := tryPost(ts.URL, SolveRequest{Root: p.Root, Level: p.Level, Tol: p.Tol}, nil)
		done <- reply{resp, err}
	}()
	entered(t, gate, len(releases))
	for _, release := range releases {
		release()
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	sameAnswer(t, "lone request", r.resp, ref)
	if by := subsolves(s.rec); len(by) < len(releases) {
		t.Fatalf("subsolves ran on %v, want at least %d executors", by, len(releases))
	}
	fam := grid.Family(p.Root, p.Level)
	order := solver.LargestFirst(fam, p.Tol)
	var enqueued, want []string
	for _, e := range s.rec.Events() {
		if e.Kind == obs.KBatchTask {
			enqueued = append(enqueued, e.Actor)
		}
	}
	for _, i := range order {
		want = append(want, signature{g: fam[i], lin: rosenbrock.BiCGStab}.String())
	}
	if !slices.Equal(enqueued, want) {
		t.Fatalf("family enqueued as %v, want largest first: %v", enqueued, want)
	}
	drainPool(t, s)
	checkLedger(t, s)
	checkBatchLedger(t, s)
}

// TestBatchExecutorHelpsForeignRequest: an executor whose own request
// waits for results runs whatever is pending, any request's. B's executor
// is held inside the first of B's three subsolves — first in
// solver.LargestFirst order, as B enqueued them — when A arrives with one of
// its own: A's executor takes the oldest pending batch — B's second task —
// then B's third, and only then its own. Both requests get the sequential
// program's answer bit for bit.
func TestBatchExecutorHelpsForeignRequest(t *testing.T) {
	s, gate := testPool(Config{})
	pA := solver.Params{Root: 2, Level: 0, Tol: 1e-2, Problem: s.problem}
	pB := solver.Params{Root: 1, Level: 1, Tol: 1e-2, Problem: s.problem}
	run := func(actor string, id int64, p solver.Params) (*solver.Output, error) {
		j := &job{id: id, lin: rosenbrock.BiCGStab, deadline: time.Now().Add(time.Minute)}
		return s.solveBatched(actor, j, nil, p)
	}

	release := gate.arm()
	type reply struct {
		out *solver.Output
		err error
	}
	doneB := make(chan reply, 1)
	go func() {
		out, err := run("exec-B", 2, pB)
		doneB <- reply{out, err}
	}()
	entered(t, gate, 1) // B's executor is held inside B's first subsolve
	outA, err := run("exec-A", 1, pA)
	if err != nil {
		t.Fatalf("request A: %v", err)
	}
	release()
	rB := <-doneB
	if rB.err != nil {
		t.Fatalf("request B: %v", rB.err)
	}
	s.batch.close()

	famA, famB := grid.Family(pA.Root, pA.Level), grid.Family(pB.Root, pB.Level)
	orderB := solver.LargestFirst(famB, pB.Tol)
	by := subsolves(s.rec)
	wantA := []string{famB[orderB[1]].String(), famB[orderB[2]].String(), famA[0].String()}
	if got := by["exec-A"]; !slices.Equal(got, wantA) {
		t.Fatalf("A's executor solved %v, want %v: B's pending tasks, then its own", got, wantA)
	}
	if got := by["exec-B"]; !slices.Equal(got, []string{famB[orderB[0]].String()}) {
		t.Fatalf("B's executor solved %v, want only %v", got, famB[orderB[0]])
	}
	for _, c := range []struct {
		what string
		p    solver.Params
		got  *solver.Output
	}{{"A", pA, outA}, {"B", pB, rB.out}} {
		ref, err := solver.Sequential(c.p)
		if err != nil {
			t.Fatal(err)
		}
		gu, ru := c.got.Combined.V.NormInf(), ref.Combined.V.NormInf()
		if math.Float64bits(gu) != math.Float64bits(ru) || c.got.TotalFlops != ref.TotalFlops {
			t.Fatalf("request %s: max|u| %x flops %d, sequential %x and %d", c.what, math.Float64bits(gu), c.got.TotalFlops, math.Float64bits(ru), ref.TotalFlops)
		}
	}
	checkBatchLedger(t, s)
}

// TestBatchDeadlineWhileHelping states the one thing an executor that runs
// subsolves itself cannot do: see its deadline timer while inside one. The
// lone executor is held in the request's first subsolve past the deadline;
// the request is answered failed/deadline when that subsolve returns, and
// no later task of the family is solved. The injected clock is frozen, so
// the tasks never pass their deadline as the batcher sees it: only the
// family's abandoned flag, set when the request returns, keeps the
// executor from solving them for nobody. Skipped tasks stay in the ledger.
func TestBatchDeadlineWhileHelping(t *testing.T) {
	frozen := time.Now()
	s, ts := newTestServer(t, Config{Executors: 1, Attempts: 1, Now: func() time.Time { return frozen }})
	gate := gateProblem(s.problem)
	s.Start()
	const deadline = 100 * time.Millisecond
	fam := len(grid.Family(1, 1))

	release := gate.arm()
	defer release()
	type reply struct {
		code int
		resp SolveResponse
		err  error
	}
	done := make(chan reply, 1)
	start := time.Now()
	go func() {
		code, resp, _, err := tryPost(ts.URL, SolveRequest{Root: 1, Level: 1, Tol: 1e-2, DeadlineMs: deadline.Milliseconds()}, nil)
		done <- reply{code, resp, err}
	}()
	entered(t, gate, 1)
	select {
	case r := <-done:
		t.Fatalf("answered %q/%q while its executor was inside a subsolve", r.resp.Status, r.resp.Reason)
	case <-time.After(time.Until(start.Add(2 * deadline))):
	}
	release()
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.code != http.StatusGatewayTimeout || r.resp.Status != StatusFailed || r.resp.Reason != failDeadline {
		t.Fatalf("answer %d %q/%q, want 504 failed/deadline", r.code, r.resp.Status, r.resp.Reason)
	}
	drainPool(t, s)

	if got := s.rec.KindCount(obs.KSubsolveBegin); got != 1 {
		t.Fatalf("%d subsolves ran, want 1: the abandoned family's later tasks must be skipped", got)
	}
	if got := s.rec.Counter("serve.batch.tasks").Value(); got != int64(fam) {
		t.Fatalf("serve.batch.tasks = %d, want %d", got, fam)
	}
	checkLedger(t, s)
	checkBatchLedger(t, s)
}

// poolGoroutines counts the goroutines this package's non-test code has
// started and that are still alive.
func poolGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "created by repro/internal/serve.(*")
}

// TestBatchWorkersIgnored: the two deprecated fields size nothing. Whatever
// BatchWorkers and BatchWindow say, the server starts its executors and no
// goroutine more, runs one subsolve per grid, and answers the same.
func TestBatchWorkersIgnored(t *testing.T) {
	p := solver.Params{Root: 1, Level: 1, Tol: 1e-2, Problem: pde.PaperProblem()}
	ref, err := solver.Sequential(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 8} {
		for _, window := range []time.Duration{0, 1, time.Hour} {
			before := poolGoroutines()
			s, ts := newTestServer(t, Config{Executors: 2, BatchWorkers: workers, BatchWindow: window})
			s.Start()
			if got := poolGoroutines() - before; got != 2 {
				t.Fatalf("BatchWorkers %d, BatchWindow %v: %d goroutines started, want the 2 executors", workers, window, got)
			}
			_, resp, _ := postSolve(t, ts.URL, SolveRequest{Root: p.Root, Level: p.Level, Tol: p.Tol}, nil)
			sameAnswer(t, "request", resp, ref)
			drainPool(t, s)
			waitFor(t, "the executors to exit", func() bool { return poolGoroutines() == before })
			if got := s.rec.KindCount(obs.KSubsolveBegin); got != uint64(len(ref.Results)) {
				t.Fatalf("BatchWorkers %d, BatchWindow %v: %d subsolves, want %d", workers, window, got, len(ref.Results))
			}
			checkLedger(t, s)
			checkBatchLedger(t, s)
		}
	}
}

// TestBatchNeverStrands is the regression test of the stranded task: with
// several runners a queued task used to be left with nobody woken for it
// until its requests died on their deadlines. Closed-loop clients hammer
// 1-4 executors with tasks of one hot and several mixed signatures: every
// result must arrive, in time. Each odd client asks questions of its own, so
// its tasks queue; the even clients ask two questions of the hot signature,
// two clients each, so that tasks also ride — a rider strands exactly like
// its leader if that does.
func TestBatchNeverStrands(t *testing.T) {
	sigs := testSigs(6)
	for executors := 1; executors <= 4; executors++ {
		s, _ := testPool(Config{Executors: executors})
		s.Start()

		const clients, perClient = 8, 400
		var answered atomic.Int64
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				out := make(chan subResult, 1)
				for i := 0; i < perClient; i++ {
					sig, tol := sigs[0], c/4 // even clients share the hot signature
					if c%2 == 1 {
						sig, tol = sigs[(c+i)%len(sigs)], 2+c
					}
					tk := ownTol(testTask(sig, 0, out), tol)
					tk.deadline = time.Now().Add(2 * time.Second)
					if err := s.batch.enqueue(tk); err != nil {
						errs <- err
						return
					}
					select {
					case r := <-out:
						if r.err != nil {
							errs <- r.err
							return
						}
						answered.Add(1)
					case <-time.After(10 * time.Second):
						errs <- errors.New("task stranded: no executor ever ran it")
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("%d executors: %v", executors, err)
		}
		drainPool(t, s)
		if got := s.rec.Counter("serve.batch.tasks").Value(); got != clients*perClient || answered.Load() != clients*perClient {
			t.Errorf("%d executors: %d tasks accounted, %d answered, want %d", executors, got, answered.Load(), clients*perClient)
		}
		checkBatchLedger(t, s) // tasks == leaders + riders
	}
}

// TestBatchedDrain: a drain stays clean and keeps the exactly-once ledger of
// requests and batches, and a draining server sheds instead of batching.
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
	checkIdle(t, s)
}

// checkIdle asserts that a batcher with nothing pending and nothing running
// holds nothing: no flight listed, none queued.
func checkIdle(t *testing.T, s *Server) {
	t.Helper()
	b := s.batch
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.flights) != 0 || len(b.queue) != 0 {
		t.Fatalf("idle batcher holds %d flights, %d of them queued", len(b.flights), len(b.queue))
	}
}
