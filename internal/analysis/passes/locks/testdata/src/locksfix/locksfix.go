// Package locksfix exercises the four locks-pass rules: leaked locks on a
// path, double acquire, blocking under a held lock, and acquisition-order
// cycles (in-package and via lockdep's cross-package facts).
package locksfix

import (
	"sync"
	"time"

	"lockdep"
)

type guarded struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	cond  *sync.Cond
	ready bool
	n     int
}

// --- Rule 1: every path releases ---

func balancedOK(g *guarded, early bool) {
	g.mu.Lock()
	if early {
		g.mu.Unlock()
		return
	}
	g.n++
	g.mu.Unlock()
}

func deferOK(g *guarded) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
}

func leakOnReturn(g *guarded, early bool) {
	g.mu.Lock()
	if early {
		return // want `lock g\.mu may still be held at this return`
	}
	g.mu.Unlock()
}

func leakAtEnd(g *guarded) {
	g.mu.Lock()
	g.n++ // want `lock g\.mu may still be held when the function falls off the end`
}

// panicExempt unwinds instead of returning: panic paths are not leaks.
func panicExempt(g *guarded, bad bool) {
	g.mu.Lock()
	if bad {
		panic("invariant broken")
	}
	g.mu.Unlock()
}

// loopBalancedOK re-acquires per iteration; the join over the back edge
// must not accumulate phantom held locks.
func loopBalancedOK(g *guarded, n int) {
	for i := 0; i < n; i++ {
		g.mu.Lock()
		g.n++
		g.mu.Unlock()
	}
}

// --- Rule 2: no double acquire ---

func doubleLock(g *guarded) {
	g.mu.Lock()
	g.mu.Lock() // want `lock g\.mu acquired while already held`
	g.mu.Unlock()
	g.mu.Unlock()
}

// rlockSharedOK: read locks are shared; a second RLock is not a
// self-deadlock.
func rlockSharedOK(g *guarded) {
	g.rw.RLock()
	g.rw.RLock()
	g.rw.RUnlock()
	g.rw.RUnlock()
}

// branchLockOK only holds the lock on one arm into the join; taking it on
// the other arm afterwards must not look like a double acquire (the lock
// is may-held, not must-held).
func branchLockOK(g *guarded, c bool) {
	if c {
		g.mu.Lock()
		g.n++
		g.mu.Unlock()
	}
	g.mu.Lock()
	g.mu.Unlock()
}

// --- Rule 3: no blocking operation under a lock ---

func sendUnderLock(g *guarded, ch chan int) {
	g.mu.Lock()
	ch <- g.n // want `channel send while holding lock g\.mu`
	g.mu.Unlock()
}

func recvUnderLock(g *guarded, ch chan int) {
	g.mu.Lock()
	g.n = <-ch // want `channel receive while holding lock g\.mu`
	g.mu.Unlock()
}

func sendOutsideLockOK(g *guarded, ch chan int) {
	g.mu.Lock()
	n := g.n
	g.mu.Unlock()
	ch <- n
}

func selectUnderLock(g *guarded, a, b chan int) {
	g.mu.Lock()
	select { // want `select while holding lock g\.mu`
	case v := <-a:
		g.n = v
	case b <- g.n:
	}
	g.mu.Unlock()
}

// selectDefaultOK polls: a select with a default never blocks, and the
// send in its comm clause is decided by the dispatch, not by the channel.
func selectDefaultOK(g *guarded, ch chan int) {
	g.mu.Lock()
	select {
	case ch <- g.n:
	default:
	}
	g.mu.Unlock()
}

// condWaitOK: sync.Cond.Wait atomically releases its locker — the one
// blocking call that is correct under the lock.
func condWaitOK(g *guarded) {
	g.mu.Lock()
	for !g.ready {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

func sleepUnderLock(g *guarded) {
	g.mu.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while holding lock g\.mu`
	g.mu.Unlock()
}

func wgWaitUnderLock(g *guarded, wg *sync.WaitGroup) {
	g.mu.Lock()
	wg.Wait() // want `WaitGroup\.Wait while holding lock g\.mu`
	g.mu.Unlock()
}

// port mimics the manifold deadline-read surface by method name.
type port struct{}

func (p *port) ReadWithin(d time.Duration) (int, error) { return 0, nil }

func readUnderLock(g *guarded, p *port) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, err := p.ReadWithin(time.Millisecond) // want `blocking read ReadWithin while holding lock g\.mu`
	return err
}

// --- Rule 4: acquisition-order cycles ---

type pair struct {
	a sync.Mutex
	b sync.Mutex
}

func abOrder(p *pair) {
	p.a.Lock()
	p.b.Lock() // want `lock acquisition order cycle: locksfix\.pair\.a → locksfix\.pair\.b → locksfix\.pair\.a`
	p.b.Unlock()
	p.a.Unlock()
}

func baOrder(p *pair) {
	p.b.Lock()
	p.a.Lock()
	p.a.Unlock()
	p.b.Unlock()
}

// crossOrder takes lockdep's locks in the opposite order from
// lockdep.StoreThenCache; the conflicting edge arrives through the
// imported fact on the call below, never syntactically visible here.
func crossOrder(s *lockdep.Store, c *lockdep.Cache) {
	c.Mu.Lock()
	s.Mu.Lock() // want `lock acquisition order cycle: lockdep\.Cache\.Mu → lockdep\.Store\.Mu → lockdep\.Cache\.Mu`
	s.Mu.Unlock()
	c.Mu.Unlock()
}

func useDep(s *lockdep.Store, c *lockdep.Cache) {
	lockdep.StoreThenCache(s, c, "k")
}

// calleeEdge holds its own lock while calling into lockdep: the edge
// toward lockdep.Store.Mu comes from Bump's imported acquire fact. No
// cycle — just the fact plumbing the cross-package rule rides on.
type registry struct {
	mu sync.Mutex
}

func calleeEdge(r *registry, s *lockdep.Store) {
	r.mu.Lock()
	lockdep.Bump(s)
	r.mu.Unlock()
}

// Port and Stream close a cycle only through methods declared after their
// callers: Port.Write calls Stream.forward under pt.mu, and Stream.Break
// calls Port.detach under s.mu. The edges come from the callees' acquire
// sets, which are complete only after the whole package is summarized.
type Port struct {
	mu sync.Mutex
	s  *Stream
}

type Stream struct {
	mu sync.Mutex
	pt *Port
}

func (pt *Port) Write() {
	pt.mu.Lock()
	pt.s.forward() // want `lock acquisition order cycle: locksfix\.Port\.mu → locksfix\.Stream\.mu → locksfix\.Port\.mu`
	pt.mu.Unlock()
}

func (s *Stream) Break() {
	s.mu.Lock()
	s.pt.detach()
	s.mu.Unlock()
}

func (s *Stream) forward() {
	s.mu.Lock()
	s.mu.Unlock()
}

func (pt *Port) detach() {
	pt.mu.Lock()
	pt.mu.Unlock()
}
