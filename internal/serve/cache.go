package serve

import (
	"container/list"
	"math"
	"sync"

	"repro/internal/obs"
	"repro/internal/pde"
	"repro/internal/rosenbrock"
)

// cacheEntry pairs a discretization with the workspace that last solved
// it. The pair is the whole point: rosenbrock.Workspace keeps the shifted
// operator and the ILU(0) factors keyed on the Jacobian *pointer*, so
// reusing disc and workspace together means the next solve of the same
// shape skips matrix assembly and the ILU level-set analysis; each
// integration redoes the numeric factorization in place.
//
// Entries are checked out exclusively: take removes the entry from the
// cache, exactly one executor uses it, put parks it again. A Disc is
// not reentrant (its RHS scratch is shared), so exclusivity is what makes
// the cache race-free without any locking on the hot solve path.
type cacheEntry struct {
	sig    signature
	sigStr string
	disc   *pde.Disc
	ws     *rosenbrock.Workspace
	bytes  int64
	elem   *list.Element // LRU position while parked; nil while checked out
}

// The two rates of entryBytes, which derives them; gridBytes shares them.
const (
	bytesPerEntry   = 52
	bytesPerUnknown = 80 + 60*8
)

// entryBytes estimates the memory a parked entry pins. Per stored entry,
// 52 bytes: the Jacobian (8 B value, 8 B column), the shifted operator (the
// same plus an 8 B source index) and the ILU(0) factor (8 B value, 4 B
// column). Per unknown, 80 bytes of structure — row pointers and diagonal
// indices of the two matrices (24 B), the factor's six 4-byte schedule
// arrays (24 B), and the two diagonal-run tables at their worst case of
// one 64 B run per 4 rows (32 B) — plus the order-of-60 n-vectors across
// the Rosenbrock stages and the Krylov workspace. The estimate only has to
// be monotone in problem size — it feeds the eviction bound and, through
// gridBytes, the admission bound, not an allocator.
func entryBytes(d *pde.Disc) int64 {
	n := int64(d.N())
	nnz := int64(d.Jacobian().NNZ())
	return bytesPerEntry*nnz + bytesPerUnknown*n
}

// gridBytes bounds entryBytes of the largest grid of the (root, level)
// family from above without assembling it: every grid of the family has
// fewer than 2^(2·root+level) unknowns, and the five-point stencil stores at
// most five entries a row. Shapes whose size would not fit an int64 —
// root is unbounded outside input — saturate.
func gridBytes(root, level int) int64 {
	const maxExp = 40 // (5·52+560)·2^40 < 2^63
	if root > maxExp || level > maxExp || 2*root+level > maxExp {
		return math.MaxInt64
	}
	return (5*bytesPerEntry + bytesPerUnknown) << (2*root + level)
}

// solverCache is the bounded LRU of warm (Disc, Workspace) pairs, keyed
// by signature. Bounds are dual: a hard entry count and an approximate
// byte budget; crossing either evicts from the cold end. Several entries
// may park under one signature — concurrent misses on the same shape each
// build one, and all of them come back.
type solverCache struct {
	rec        *obs.Recorder
	problem    *pde.Problem
	maxEntries int
	maxBytes   int64

	mu     sync.Mutex
	parked map[signature][]*cacheEntry // per-signature stacks, warmest last
	lru    *list.List                  // front = most recently parked
	bytes  int64

	cHits, cMisses, cEvicts *obs.Counter
	gEntries, gBytes        *obs.Gauge
}

func newSolverCache(cfg Config, rec *obs.Recorder, problem *pde.Problem) *solverCache {
	return &solverCache{
		rec:        rec,
		problem:    problem,
		maxEntries: cfg.CacheEntries,
		maxBytes:   cfg.CacheBytes,
		parked:     make(map[signature][]*cacheEntry),
		lru:        list.New(),
		cHits:      rec.Counter("serve.cache.hits"),
		cMisses:    rec.Counter("serve.cache.misses"),
		cEvicts:    rec.Counter("serve.cache.evictions"),
		gEntries:   rec.Gauge("serve.cache.entries"),
		gBytes:     rec.Gauge("serve.cache.bytes"),
	}
}

// take checks out a warm entry for sig, or returns nil on a miss (the
// caller builds one with build). Either way exactly one hit or miss event
// and counter increment is recorded per checkout.
func (c *solverCache) take(sig signature, sigStr string) *cacheEntry {
	c.mu.Lock()
	stack := c.parked[sig]
	if n := len(stack); n > 0 {
		e := stack[n-1]
		if n == 1 {
			delete(c.parked, sig)
		} else {
			c.parked[sig] = stack[:n-1]
		}
		c.lru.Remove(e.elem)
		e.elem = nil
		c.bytes -= e.bytes
		c.gEntries.Set(int64(c.lru.Len()))
		c.gBytes.Set(c.bytes)
		c.mu.Unlock()
		c.cHits.Inc()
		c.rec.Emit(obs.KCacheHit, sigStr, "", 0, 0)
		return e
	}
	c.mu.Unlock()
	c.cMisses.Inc()
	c.rec.Emit(obs.KCacheMiss, sigStr, "", 0, 0)
	return nil
}

// build assembles a fresh entry for sig — the expensive path take exists
// to avoid. Runs outside the cache lock; assembly can take milliseconds.
func (c *solverCache) build(sig signature, sigStr string) *cacheEntry {
	d := pde.NewDisc(sig.g, c.problem)
	return &cacheEntry{
		sig: sig, sigStr: sigStr, disc: d,
		ws: rosenbrock.NewWorkspace(), bytes: entryBytes(d),
	}
}

// put parks an entry back and enforces the entry/byte bounds, evicting
// least-recently-parked entries. At least one entry always survives, so a
// single oversized problem degrades to "cache of one" instead of
// thrashing.
func (c *solverCache) put(e *cacheEntry) {
	c.mu.Lock()
	e.elem = c.lru.PushFront(e)
	c.parked[e.sig] = append(c.parked[e.sig], e)
	c.bytes += e.bytes
	var evicted []*cacheEntry
	for c.lru.Len() > 1 && (c.lru.Len() > c.maxEntries || c.bytes > c.maxBytes) {
		v := c.lru.Back().Value.(*cacheEntry)
		c.removeLocked(v)
		evicted = append(evicted, v)
	}
	c.gEntries.Set(int64(c.lru.Len()))
	c.gBytes.Set(c.bytes)
	c.mu.Unlock()
	for _, v := range evicted {
		c.cEvicts.Inc()
		c.rec.Emit(obs.KCacheEvict, v.sigStr, "", v.bytes, 0)
	}
}

// drop discards a checked-out entry whose solve failed: a workspace left
// mid-integration must never serve a later request. The entry left the
// gauges when it was checked out; it is accounted as an eviction (Aux
// "failed"), so every entry ever built is still parked, checked out or
// evicted.
func (c *solverCache) drop(e *cacheEntry) {
	c.cEvicts.Inc()
	c.rec.Emit(obs.KCacheEvict, e.sigStr, "failed", e.bytes, 0)
}

func (c *solverCache) removeLocked(v *cacheEntry) {
	c.lru.Remove(v.elem)
	v.elem = nil
	stack := c.parked[v.sig]
	for i, e := range stack {
		if e == v {
			stack = append(stack[:i], stack[i+1:]...)
			break
		}
	}
	if len(stack) == 0 {
		delete(c.parked, v.sig)
	} else {
		c.parked[v.sig] = stack
	}
	c.bytes -= v.bytes
}
