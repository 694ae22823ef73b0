package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/pde"
	"repro/internal/rosenbrock"
	"repro/internal/solver"
)

// recv receives one result, failing on a stall.
func recv(t *testing.T, what string, out <-chan subResult) subResult {
	t.Helper()
	select {
	case r := <-out:
		return r
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no answer", what)
		return subResult{}
	}
}

// digest hashes a vector bit-exactly.
func digest(v linalg.Vector) [sha256.Size]byte {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return sha256.Sum256(buf)
}

// failedDrops counts the cache entries dropped because a subsolve failed on them.
func failedDrops(rec *obs.Recorder) int {
	n := 0
	for _, e := range rec.Events() {
		if e.Kind == obs.KCacheEvict && e.Aux == "failed" {
			n++
		}
	}
	return n
}

// pairFam is the family size of the shape coalescedPair asks for, root 1
// level 2: 2·level+1 grids.
const pairFam = 2*2 + 1

// coalescedPair asks for the root-1 level-2 family twice, the i-th request
// naming names[i] as its solver, both admitted before the two executors of
// a fresh server start, and checks both answers against the sequential
// program's with lin. Every question must be asked twice while its flight
// is listed, on one core as on four, so the first executor is held in the
// gate inside its request's first subsolve, and the helper takes the
// wake-up token that subsolve's take left: the second executor, started
// now, finds only the second request to run, and sleeps on its riders
// until the helper pays the take it owes. It returns the drained server.
func coalescedPair(t *testing.T, lin rosenbrock.LinearSolver, names [2]string) *Server {
	t.Helper()
	s, ts := newTestServer(t, Config{BatchWindow: time.Hour, Executors: 2, Attempts: 1})
	gate := gateProblem(s.problem)
	p := solver.Params{Root: 1, Level: 2, Tol: 1e-2, Solver: lin, Problem: pde.PaperProblem()}
	ref, err := solver.Sequential(p)
	if err != nil {
		t.Fatal(err)
	}

	release := gate.arm()
	defer release()
	type reply struct {
		resp SolveResponse
		err  error
	}
	done := make(chan reply, 2)
	for _, name := range names {
		go func() {
			_, resp, _, err := tryPost(ts.URL, SolveRequest{Root: p.Root, Level: p.Level, Tol: p.Tol, Solver: name}, nil)
			done <- reply{resp, err}
		}()
	}
	rec := s.rec
	waitFor(t, "both requests admitted", func() bool { return rec.KindCount(obs.KServeAccept) == 2 })
	s.execWG.Add(2)
	go s.executor(0)
	entered(t, gate, 1)
	select {
	case <-s.batch.wake:
	case <-time.After(10 * time.Second):
		t.Fatal("no wake-up token with four batches pending")
	}
	go s.executor(1)
	waitFor(t, "both families enqueued", func() bool { return rec.Counter("serve.batch.tasks").Value() == 2*pairFam })
	s.batch.signal()
	release()
	for i := 0; i < 2; i++ {
		r := <-done
		if r.err != nil {
			t.Fatal(r.err)
		}
		sameAnswer(t, "coalesced request", r.resp, ref)
		if r.resp.Grids != pairFam {
			t.Fatalf("grids = %d, want %d", r.resp.Grids, pairFam)
		}
	}
	drainPool(t, s)
	return s
}

// TestCoalescedRequestsSolveOnce: two identical requests, both admitted
// before the two executors start, are one family of subsolves, not two:
// 2·level+1 integrations and cache checkouts, as many riders, and both
// answers the sequential program's.
func TestCoalescedRequestsSolveOnce(t *testing.T) {
	s := coalescedPair(t, rosenbrock.BiCGStab, [2]string{})
	rec := s.rec
	if got := rec.KindCount(obs.KSubsolveBegin); got != pairFam {
		t.Fatalf("%d subsolves for two identical requests, want %d: one per question", got, pairFam)
	}
	if got := rec.Counter("serve.batch.coalesced").Value(); got != pairFam {
		t.Fatalf("serve.batch.coalesced = %d, want %d", got, pairFam)
	}
	if hits, misses := rec.Counter("serve.cache.hits").Value(), rec.Counter("serve.cache.misses").Value(); hits+misses != pairFam || rec.Gauge("serve.cache.entries").Value() != pairFam {
		t.Fatalf("hits=%d misses=%d entries=%d, want %d checkouts and entries: one per flight", hits, misses, rec.Gauge("serve.cache.entries").Value(), pairFam)
	}
	if waits := rec.Histogram("serve.batch.wait.us").Count(); waits != 2*pairFam {
		t.Fatalf("%d batch waits observed, want %d: leaders when run, riders when answered", waits, 2*pairFam)
	}
	checkLedger(t, s)
	checkBatchLedger(t, s)
	checkIdle(t, s)
}

// TestCoalescedDeprecatedSolverName: "gmres" is a deprecated name of "ilu",
// so a request of each for one shape asks the same questions: they form
// one flight a grid, the cache parks one entry a grid under one signature,
// and both answers are the sequential program's with rosenbrock.ILU.
func TestCoalescedDeprecatedSolverName(t *testing.T) {
	s := coalescedPair(t, rosenbrock.ILU, [2]string{"gmres", "ilu"})
	rec := s.rec
	if got := rec.Counter("serve.batch.coalesced").Value(); got != pairFam {
		t.Fatalf("serve.batch.coalesced = %d, want %d: the two names are one question a grid", got, pairFam)
	}
	if got := rec.KindCount(obs.KSubsolveBegin); got != pairFam {
		t.Fatalf("%d subsolves, want %d: one family", got, pairFam)
	}
	c := s.batch.cache
	c.mu.Lock()
	grids := map[grid.Grid]int{}
	for sig, stack := range c.parked {
		if sig.lin != rosenbrock.ILU {
			t.Errorf("an entry is parked under %v", sig)
		}
		grids[sig.g] += len(stack)
	}
	c.mu.Unlock()
	if len(grids) != pairFam {
		t.Errorf("entries parked for %d grids, want %d", len(grids), pairFam)
	}
	for g, n := range grids {
		if n != 1 {
			t.Errorf("%d entries parked for %v, want 1", n, g)
		}
	}
	checkLedger(t, s)
	checkBatchLedger(t, s)
	checkIdle(t, s)
}

// TestCoalescedAnswerBitIdentical: what a rider is handed is the leader's
// answer itself. Two requests for one shape meet in the batcher as above;
// each Output carries the sequential program's flops and the SHA-256 of its
// combined field, and the two share every per-grid solution's storage —
// nothing downstream of the batcher writes it.
func TestCoalescedAnswerBitIdentical(t *testing.T) {
	s, gate := testPool(Config{BatchWindow: time.Hour})
	p := solver.Params{Root: 2, Level: 2, Tol: 1e-3, Solver: rosenbrock.ILU, Problem: s.problem}
	fam := len(grid.Family(p.Root, p.Level))

	release := gate.arm()
	defer release()
	type reply struct {
		out *solver.Output
		err error
	}
	done := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func() {
			j := &job{id: int64(i + 1), lin: p.Solver, deadline: time.Now().Add(time.Minute)}
			out, err := s.solveBatched("exec-"+string(rune('A'+i)), j, nil, p)
			done <- reply{out, err}
		}()
	}
	entered(t, gate, 1)
	waitFor(t, "both families enqueued", func() bool { return s.rec.Counter("serve.batch.tasks").Value() == int64(2*fam) })
	release()
	a, b := <-done, <-done
	if a.err != nil || b.err != nil {
		t.Fatalf("requests failed: %v, %v", a.err, b.err)
	}
	s.batch.close()

	ref, err := solver.Sequential(solver.Params{Root: p.Root, Level: p.Level, Tol: p.Tol, Solver: p.Solver, Problem: pde.PaperProblem()})
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []*solver.Output{a.out, b.out} {
		if digest(out.Combined.V) != digest(ref.Combined.V) || out.TotalFlops != ref.TotalFlops {
			t.Fatalf("coalesced output: digest %x flops %d, sequential %x and %d", digest(out.Combined.V), out.TotalFlops, digest(ref.Combined.V), ref.TotalFlops)
		}
	}
	for i := range a.out.Results {
		ua, ub := a.out.Results[i].U, b.out.Results[i].U
		if &ua[0] != &ub[0] || digest(ua) != digest(ref.Results[i].U) {
			t.Fatalf("grid %v: the two requests must share one solution, the sequential program's", a.out.Results[i].Grid)
		}
	}
	if got := s.rec.KindCount(obs.KSubsolveBegin); got != uint64(fam) {
		t.Fatalf("%d subsolves, want %d", got, fam)
	}
	checkBatchLedger(t, s)
	checkIdle(t, s)
}

// TestCoalesceKey: only the same question coalesces. Of four tasks pending
// on one grid, the one whose tolerance differs from the first's by an ulp and
// the one for another linear solver are solved for themselves; the exact
// repeat rides.
func TestCoalesceKey(t *testing.T) {
	s, _ := testPool(Config{BatchWindow: time.Hour, Executors: 1})
	sig := testSigs(1)[0]
	other := signature{g: sig.g, lin: rosenbrock.ILU}
	outs := make([]chan subResult, 4)
	for i, tk := range []*subTask{
		testTask(sig, 0, nil),
		ownTol(testTask(sig, 1, nil), 1),
		testTask(other, 2, nil),
		testTask(sig, 3, nil),
	} {
		outs[i] = make(chan subResult, 1)
		tk.out = outs[i]
		tk.reqID = int64(i + 1)
		if err := s.batch.enqueue(tk); err != nil {
			t.Fatal(err)
		}
	}
	s.Start()
	var rs [4]subResult
	for i, out := range outs {
		if rs[i] = recv(t, "task", out); rs[i].err != nil || rs[i].idx != i {
			t.Fatalf("task %d answered idx %d err %v", i, rs[i].idx, rs[i].err)
		}
	}
	drainPool(t, s)

	if &rs[0].res.U[0] != &rs[3].res.U[0] {
		t.Fatal("the exact repeat was solved for itself")
	}
	if &rs[0].res.U[0] == &rs[1].res.U[0] || &rs[0].res.U[0] == &rs[2].res.U[0] {
		t.Fatal("a different tolerance or solver was handed the first task's answer")
	}
	if got, coalesced := s.rec.KindCount(obs.KSubsolveBegin), s.rec.Counter("serve.batch.coalesced").Value(); got != 3 || coalesced != 1 {
		t.Fatalf("%d subsolves, %d coalesced, want 3 and 1", got, coalesced)
	}
	for _, e := range s.rec.Events() {
		if e.Kind == obs.KBatchCoalesce && (e.Actor != sig.String() || e.A != 4 || e.B != 1) {
			t.Fatalf("coalesce event %s rider %d leader %d, want %s 4 1", e.Actor, e.A, e.B, sig)
		}
	}
	checkBatchLedger(t, s)
	checkIdle(t, s)
}

// TestCoalescedLiveness: a flight is skipped only when nobody waits for it.
// An abandoned leader with a live rider is solved once — the rider gets the
// answer, the leader its own errBatchAbandoned; with every member gone
// (abandoned, or past its deadline) nothing is solved, each gets its own
// reason, and the flight is gone: the next identical task integrates afresh.
func TestCoalescedLiveness(t *testing.T) {
	var clock atomic.Int64 // injected time, ns after base
	base := time.Now()
	now := func() time.Time { return base.Add(time.Duration(clock.Load())) }
	s, gate := testPool(Config{BatchWindow: time.Hour, Executors: 1, Now: now})
	sigs := testSigs(2)
	sig := sigs[0]
	// pair enqueues a leader and, with the given deadline, its rider.
	pair := func(deadline time.Time) (lead *subTask, outL, outR chan subResult) {
		t.Helper()
		outL, outR = make(chan subResult, 1), make(chan subResult, 1)
		lead = testTask(sig, 0, outL)
		rider := testTask(sig, 1, outR)
		rider.deadline = deadline
		for _, tk := range []*subTask{lead, rider} {
			if err := s.batch.enqueue(tk); err != nil {
				t.Fatal(err)
			}
		}
		return lead, outL, outR
	}
	begun := func() uint64 { return s.rec.KindCount(obs.KSubsolveBegin) }

	lead, outL, outR := pair(time.Time{})
	lead.abandoned.Store(true)
	s.Start()
	if r := recv(t, "live rider", outR); r.err != nil || r.idx != 1 || len(r.res.U) == 0 {
		t.Fatalf("live rider of an abandoned leader: idx %d err %v", r.idx, r.err)
	}
	if r := recv(t, "abandoned leader", outL); r.err != errBatchAbandoned {
		t.Fatalf("abandoned leader: err %v, want errBatchAbandoned", r.err)
	}
	if begun() != 1 {
		t.Fatalf("%d subsolves, want 1", begun())
	}

	// Hold the executor in another signature's solve while the next pair gives up.
	release := gate.arm()
	defer release()
	held := make(chan subResult, 1)
	if err := s.batch.enqueue(testTask(sigs[1], 0, held)); err != nil {
		t.Fatal(err)
	}
	entered(t, gate, 1)
	lead, outL, outR = pair(now().Add(time.Millisecond))
	lead.abandoned.Store(true)
	clock.Add(int64(time.Second))
	release()
	if r := recv(t, "held task", held); r.err != nil {
		t.Fatal(r.err)
	}
	if l, r := recv(t, "dead leader", outL), recv(t, "dead rider", outR); l.err != errBatchAbandoned || r.err != errBatchDeadline || r.idx != 1 {
		t.Fatalf("dead flight: leader %v, rider %v (idx %d), want errBatchAbandoned and errBatchDeadline", l.err, r.err, r.idx)
	}
	if begun() != 2 {
		t.Fatalf("%d subsolves, want 2: a flight nobody waits for must not be solved", begun())
	}
	checkIdle(t, s) // each flight left the list before it was answered

	fresh := make(chan subResult, 1)
	if err := s.batch.enqueue(testTask(sig, 0, fresh)); err != nil {
		t.Fatal(err)
	}
	if r := recv(t, "next identical task", fresh); r.err != nil || begun() != 3 {
		t.Fatalf("next identical task: err %v after %d subsolves, want a fresh third", r.err, begun())
	}
	drainPool(t, s)
	if got := s.rec.Counter("serve.batch.coalesced").Value(); got != 2 {
		t.Fatalf("serve.batch.coalesced = %d, want 2", got)
	}
	checkBatchLedger(t, s)
	checkIdle(t, s)
}

// TestCoalescedPanicFansOut: a flight's failure is every member's. The one
// subsolve of a leader and two riders panics (the hook of
// TestBatchPanicBecomesTaskError): all three get the error, the entry it ran
// on is dropped once, and the same question asked again is solved afresh.
func TestCoalescedPanicFansOut(t *testing.T) {
	s := NewServer(Config{BatchWindow: time.Hour, Executors: 1})
	var boom atomic.Bool
	initial := s.problem.Initial
	s.problem.Initial = func(x, y float64) float64 {
		if boom.CompareAndSwap(true, false) {
			panic("injected subsolve panic")
		}
		return initial(x, y)
	}
	sig := testSigs(1)[0]
	out := make(chan subResult, 3)
	for i := 0; i < 3; i++ {
		if err := s.batch.enqueue(testTask(sig, i, out)); err != nil {
			t.Fatal(err)
		}
	}
	boom.Store(true)
	s.Start()
	seen := 0
	for i := 0; i < 3; i++ {
		r := recv(t, "member of the panicked flight", out)
		if r.err == nil || !strings.Contains(r.err.Error(), "panicked") {
			t.Fatalf("member %d: err %v, want the panic", r.idx, r.err)
		}
		seen |= 1 << r.idx
	}
	if seen != 0b111 {
		t.Fatalf("members answered: %03b, want each under its own idx", seen)
	}
	if err := s.batch.enqueue(testTask(sig, 0, out)); err != nil {
		t.Fatal(err)
	}
	if r := recv(t, "retry", out); r.err != nil {
		t.Fatalf("retry after the panic: %v", r.err)
	}
	drainPool(t, s)
	rec := s.rec
	if drops, misses, entries := failedDrops(rec), rec.Counter("serve.cache.misses").Value(), rec.Gauge("serve.cache.entries").Value(); drops != 1 || misses != 2 || entries != 1 {
		t.Fatalf("%d entries dropped as failed, %d misses, %d parked, want 1, 2 and 1", drops, misses, entries)
	}
	if got := rec.KindCount(obs.KSubsolveBegin); got != 2 {
		t.Fatalf("%d subsolves, want 2: the panicked one and the retry", got)
	}
	checkBatchLedger(t, s)
	checkIdle(t, s)
}

// TestCoalescedClose: riders of a flight still pending at close fail with
// their leader, each with errBatcherClosed; a flight already taken is run to
// the end and its rider answered with it; nothing is enqueued afterwards.
func TestCoalescedClose(t *testing.T) {
	s, gate := testPool(Config{BatchWindow: time.Hour, Executors: 1})
	s.Start()
	sigs := testSigs(2)
	release := gate.arm()
	defer release()
	running := make(chan subResult, 2)
	if err := s.batch.enqueue(testTask(sigs[1], 0, running)); err != nil {
		t.Fatal(err)
	}
	entered(t, gate, 1)
	if err := s.batch.enqueue(testTask(sigs[1], 1, running)); err != nil {
		t.Fatal(err)
	}
	pending := make(chan subResult, 3)
	for i := 0; i < 3; i++ {
		if err := s.batch.enqueue(testTask(sigs[0], i, pending)); err != nil {
			t.Fatal(err)
		}
	}
	s.batch.close()
	for i := 0; i < 3; i++ {
		if r := recv(t, "member pending at close", pending); !errors.Is(r.err, errBatcherClosed) {
			t.Fatalf("member %d pending at close: err %v, want errBatcherClosed", r.idx, r.err)
		}
	}
	release()
	await(t, "flight running at close", running, 2)
	if err := s.batch.enqueue(testTask(sigs[0], 0, pending)); err != errBatcherClosed {
		t.Fatalf("enqueue after close: err = %v, want errBatcherClosed", err)
	}
	drainPool(t, s)
	if got := s.rec.KindCount(obs.KBatchTask); got != 2 {
		t.Fatalf("%d tasks queued, want 2: riders are not queued", got)
	}
	checkBatchLedger(t, s)
	checkIdle(t, s)
}

// TestTwoTolerancesTwoFlights covers the one traffic class that is no longer
// handled as it was: the same shape pending at two tolerances at once. Two
// requests, their families all enqueued while the first subsolve is held in
// the gate, are two flights per signature on two runners — no task rides,
// each answer is the sequential program's at its own tolerance, and the cache
// ends up with at most two entries a signature, from which a third request
// of either tolerance is served without a miss.
func TestTwoTolerancesTwoFlights(t *testing.T) {
	s, gate := testPool(Config{Executors: 2})
	fam := grid.Family(2, 2)
	tols := []float64{1e-2, 1e-3}
	run := func(id int64, tol float64) (*solver.Output, error) {
		j := &job{id: id, lin: rosenbrock.BiCGStab, deadline: time.Now().Add(time.Minute)}
		return s.solveBatched("exec-"+string(rune('A'+id)), j, nil, solver.Params{Root: 2, Level: 2, Tol: tol, Problem: s.problem})
	}
	check := func(what string, tol float64, out *solver.Output) {
		t.Helper()
		ref, err := solver.Sequential(solver.Params{Root: 2, Level: 2, Tol: tol, Problem: pde.PaperProblem()})
		if err != nil {
			t.Fatal(err)
		}
		// The same field to the bit is the same max|u|.
		if len(out.Results) != len(ref.Results) || out.TotalFlops != ref.TotalFlops || digest(out.Combined.V) != digest(ref.Combined.V) {
			t.Fatalf("%s at tol %g: %d grids, flops %d, digest %x; sequential %d, %d, %x", what, tol,
				len(out.Results), out.TotalFlops, digest(out.Combined.V), len(ref.Results), ref.TotalFlops, digest(ref.Combined.V))
		}
	}

	release := gate.arm()
	defer release()
	type reply struct {
		out *solver.Output
		err error
	}
	done := make([]chan reply, len(tols))
	for i, tol := range tols {
		done[i] = make(chan reply, 1)
		go func() {
			out, err := run(int64(i), tol)
			done[i] <- reply{out, err}
		}()
	}
	entered(t, gate, 1)
	rec := s.rec
	waitFor(t, "both families enqueued", func() bool { return rec.Counter("serve.batch.tasks").Value() == int64(2*len(fam)) })
	release()
	for i, tol := range tols {
		r := <-done[i]
		if r.err != nil {
			t.Fatalf("request at tol %g: %v", tol, r.err)
		}
		check("request", tol, r.out)
	}
	if coalesced, begun := rec.Counter("serve.batch.coalesced").Value(), rec.KindCount(obs.KSubsolveBegin); coalesced != 0 || begun != uint64(2*len(fam)) {
		t.Fatalf("%d tasks rode, %d subsolves, want 0 and %d: another tolerance is another question", coalesced, begun, 2*len(fam))
	}
	s.batch.cache.mu.Lock()
	for sig, stack := range s.batch.cache.parked {
		if len(stack) > 2 {
			t.Errorf("%d entries parked for %v, want at most one per runner", len(stack), sig)
		}
	}
	s.batch.cache.mu.Unlock()

	misses := rec.Counter("serve.cache.misses").Value()
	for i, tol := range tols {
		out, err := run(int64(2+i), tol)
		if err != nil {
			t.Fatalf("third request at tol %g: %v", tol, err)
		}
		check("third request", tol, out)
	}
	if got := rec.Counter("serve.cache.misses").Value(); got != misses {
		t.Fatalf("serve.cache.misses rose from %d to %d on requests whose every grid is parked", misses, got)
	}
	s.batch.close()
	checkBatchLedger(t, s)
	checkIdle(t, s)
}

// TestCoalescedWhileExecutorBusy: a request's family enters the batcher when
// the request is admitted, not when an executor is free to run it. The lone
// executor is held inside the first subsolve of request A when B, the same
// shape, is admitted: B's questions are all in flight, so B rides every one,
// and the pair is one family of subsolves, both answers the sequential
// program's. coalescedPair cannot see this: it starts its executors only
// after both requests are admitted.
func TestCoalescedWhileExecutorBusy(t *testing.T) {
	s, ts := newTestServer(t, Config{Executors: 1, Attempts: 1})
	gate := gateProblem(s.problem)
	s.Start()
	p := solver.Params{Root: 1, Level: 2, Tol: 1e-2, Problem: pde.PaperProblem()}
	ref, err := solver.Sequential(p)
	if err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{Root: p.Root, Level: p.Level, Tol: p.Tol}
	release := gate.arm()
	defer release()
	doneA := post(ts, req)
	entered(t, gate, 1)
	doneB := post(ts, req)
	waitFor(t, "both requests admitted", func() bool { return waitingHandlers() == 2 })
	release()
	for _, done := range []<-chan postReply{doneA, doneB} {
		r := recvReply(t, "request", done)
		sameAnswer(t, "request", r.resp, ref)
		if r.resp.Grids != pairFam {
			t.Fatalf("grids = %d, want %d", r.resp.Grids, pairFam)
		}
	}
	drainPool(t, s)
	rec := s.rec
	if got := rec.KindCount(obs.KSubsolveBegin); got != pairFam {
		t.Fatalf("%d subsolves for two identical requests, want %d", got, pairFam)
	}
	if got := rec.Counter("serve.batch.coalesced").Value(); got != pairFam {
		t.Fatalf("serve.batch.coalesced = %d, want %d", got, pairFam)
	}
	checkLedger(t, s)
	checkBatchLedger(t, s)
	checkIdle(t, s)
}

// waitingHandlers counts the /solve handlers that have admitted their
// request and wait for its outcome.
func waitingHandlers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.HasPrefix(g, "goroutine ") && strings.Contains(g, " [chan receive") && strings.Contains(g, "serve.(*Server).handleSolve(") {
			n++
		}
	}
	return n
}

// postReply is one request's answer as a posting goroutine hands it back.
type postReply struct {
	code int
	resp SolveResponse
	err  error
}

// post sends req from its own goroutine; the answer arrives on the channel.
func post(ts *httptest.Server, req SolveRequest) <-chan postReply {
	done := make(chan postReply, 1)
	go func() {
		code, resp, _, err := tryPost(ts.URL, req, nil)
		done <- postReply{code, resp, err}
	}()
	return done
}

// recvReply receives one answer, failing on a transport error or a stall.
func recvReply(t *testing.T, what string, done <-chan postReply) postReply {
	t.Helper()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("%s: %v", what, r.err)
		}
		return r
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no answer", what)
		return postReply{}
	}
}

// heldJob posts req to s, whose executors are not started, and takes the
// request's job off the queue: the test runs it (runJob) when it chooses.
// It returns once exec-0, started on the empty job queue and so able only to
// help, is held in the gate inside the first flight of the family the
// request fanned out at admission.
func heldJob(t *testing.T, s *Server, ts *httptest.Server, gate *solveGate, req SolveRequest) (j *job, done <-chan postReply, release func()) {
	t.Helper()
	release = gate.arm()
	done = post(ts, req)
	select {
	case j = <-s.queue:
	case <-time.After(10 * time.Second):
		t.Fatal("request never queued")
	}
	s.execWG.Add(1)
	go s.executor(0)
	entered(t, gate, 1)
	return j, done, release
}

// queuedFlights reports how many flights wait for an executor.
func queuedFlights(s *Server) int {
	s.batch.mu.Lock()
	defer s.batch.mu.Unlock()
	return len(s.batch.queue)
}

// TestCoalescedQueuedShedByDrain: a job shed by Drain while queued has its
// family, fanned out at admission, abandoned. Live request A's executor is
// held inside A's one subsolve; B, another question, is admitted behind it
// and shed by the drain, which then waits for A. A's own runner, waiting on
// the held flight, takes B's queued flights — and skips them: nobody waits.
func TestCoalescedQueuedShedByDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Executors: 1, Attempts: 1})
	gate := gateProblem(s.problem)
	pA := solver.Params{Root: 1, Level: 0, Tol: 1e-2, Problem: pde.PaperProblem()}
	ref, err := solver.Sequential(pA)
	if err != nil {
		t.Fatal(err)
	}
	jA, doneA, release := heldJob(t, s, ts, gate, SolveRequest{Root: pA.Root, Level: pA.Level, Tol: pA.Tol})
	defer release()
	famB := len(grid.Family(1, 1))
	doneB := post(ts, SolveRequest{Root: 1, Level: 1, Tol: 1e-3})
	rec := s.rec
	waitFor(t, "B's family fanned out at admission", func() bool { return rec.Counter("serve.batch.tasks").Value() == int64(1+famB) })
	drained := make(chan bool, 1)
	go func() { drained <- s.Drain(time.Minute) }()
	if r := recvReply(t, "request B", doneB); r.resp.Status != StatusShed || r.resp.Reason != shedDraining {
		t.Fatalf("B: %q/%q, want shed/draining", r.resp.Status, r.resp.Reason)
	}
	go s.runJob("exec-A", jA)
	waitFor(t, "A's runner to take B's flights", func() bool { return queuedFlights(s) == 0 })
	release()
	sameAnswer(t, "request A", recvReply(t, "request A", doneA).resp, ref)
	if !<-drained {
		t.Fatal("drain timed out")
	}
	if got := rec.KindCount(obs.KSubsolveBegin); got != 1 {
		t.Fatalf("%d subsolves, want 1: the shed job's flights must be skipped", got)
	}
	checkLedger(t, s)
	checkBatchLedger(t, s)
	checkIdle(t, s)
}

// TestCoalescedQueuedPastDeadline: a job whose deadline comes while it is
// queued behind a busy executor fails on its deadline, and none of the
// flights its admission fanned out is solved. The clock stops at the very
// instant of B's deadline, which runJob counts as expired and a task's own
// check does not, so only the abandonment settle records keeps A's runner,
// which takes every queued flight, from solving B's for nobody.
func TestCoalescedQueuedPastDeadline(t *testing.T) {
	clock := newFakeClock()
	s, ts := newTestServer(t, Config{Executors: 1, Attempts: 1, Now: clock.Now})
	gate := gateProblem(s.problem)
	pA := solver.Params{Root: 1, Level: 0, Tol: 1e-2, Problem: pde.PaperProblem()}
	ref, err := solver.Sequential(pA)
	if err != nil {
		t.Fatal(err)
	}
	jA, doneA, release := heldJob(t, s, ts, gate, SolveRequest{Root: pA.Root, Level: pA.Level, Tol: pA.Tol})
	defer release()
	famB := len(grid.Family(1, 1))
	const deadline = 50 * time.Millisecond
	doneB := post(ts, SolveRequest{Root: 1, Level: 1, Tol: 1e-3, DeadlineMs: deadline.Milliseconds()})
	rec := s.rec
	waitFor(t, "B's family fanned out at admission", func() bool { return rec.Counter("serve.batch.tasks").Value() == int64(1+famB) })
	clock.Advance(deadline)
	s.runJob("exec-B", <-s.queue) // B fanned out after its job was queued
	if r := recvReply(t, "request B", doneB); r.code != http.StatusGatewayTimeout || r.resp.Status != StatusFailed || r.resp.Reason != failDeadline {
		t.Fatalf("B: %d %q/%q, want 504 failed/deadline", r.code, r.resp.Status, r.resp.Reason)
	}
	go s.runJob("exec-A", jA)
	waitFor(t, "A's runner to take B's flights", func() bool { return queuedFlights(s) == 0 })
	release()
	sameAnswer(t, "request A", recvReply(t, "request A", doneA).resp, ref)
	drainPool(t, s)
	if got := rec.KindCount(obs.KSubsolveBegin); got != 1 {
		t.Fatalf("%d subsolves, want 1: the expired job's flights must be skipped", got)
	}
	checkLedger(t, s)
	checkBatchLedger(t, s)
}

// TestCoalescedRiderExpires: a queued job that rides a live request's
// flights and then expires cancels none of them. B, A's shape, is admitted
// while A's first subsolve is held and rides every flight of A's family; B
// fails on its deadline before anyone runs A's job, and A's flights are
// still solved, once each, into the sequential program's answer.
func TestCoalescedRiderExpires(t *testing.T) {
	clock := newFakeClock()
	s, ts := newTestServer(t, Config{Executors: 1, Attempts: 1, Now: clock.Now})
	gate := gateProblem(s.problem)
	p := solver.Params{Root: 1, Level: 2, Tol: 1e-2, Problem: pde.PaperProblem()}
	ref, err := solver.Sequential(p)
	if err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{Root: p.Root, Level: p.Level, Tol: p.Tol}
	jA, doneA, release := heldJob(t, s, ts, gate, req)
	defer release()
	req.DeadlineMs = 50
	doneB := post(ts, req)
	rec := s.rec
	waitFor(t, "B riding A's flights", func() bool { return rec.Counter("serve.batch.coalesced").Value() == pairFam })
	clock.Advance(100 * time.Millisecond)
	s.runJob("exec-B", <-s.queue) // B fanned out after its job was queued
	if r := recvReply(t, "request B", doneB); r.code != http.StatusGatewayTimeout || r.resp.Reason != failDeadline {
		t.Fatalf("B: %d %q/%q, want 504 failed/deadline", r.code, r.resp.Status, r.resp.Reason)
	}
	go s.runJob("exec-A", jA)
	release()
	sameAnswer(t, "request A", recvReply(t, "request A", doneA).resp, ref)
	drainPool(t, s)
	if got := rec.KindCount(obs.KSubsolveBegin); got != pairFam {
		t.Fatalf("%d subsolves, want %d: a rider's expiry must not cancel the flights it rode", got, pairFam)
	}
	checkLedger(t, s)
	checkBatchLedger(t, s)
}

// TestCoalescedNothingWithFaults: a server with Faults set solves each
// request on its own pool, so admission fans nothing into the batcher.
func TestCoalescedNothingWithFaults(t *testing.T) {
	s, ts := newTestServer(t, Config{Executors: 1, Faults: core.PlanFaults(0)})
	done := post(ts, SolveRequest{Root: 1, Level: 1, Tol: 1e-2})
	rec := s.rec
	waitFor(t, "request admitted", func() bool { return rec.KindCount(obs.KServeAccept) == 1 })
	s.Start()
	if r := recvReply(t, "request", done); r.resp.Status != StatusCompleted {
		t.Fatalf("status %q (%s), want completed", r.resp.Status, r.resp.Reason)
	}
	drainPool(t, s)
	if tasks, events := rec.Counter("serve.batch.tasks").Value(), rec.KindCount(obs.KBatchTask); tasks != 0 || events != 0 {
		t.Fatalf("serve.batch.tasks = %d, %d %v events, want none on the fault path", tasks, events, obs.KBatchTask)
	}
	checkLedger(t, s)
}
