package serve

import (
	"container/list"
	"context"
	"sync"
)

// entry is one cached session keyed by its topology fingerprint.
//
// Lifecycle: acquire inserts a placeholder and the inserting request
// compiles outside the cache lock while concurrent requests for the
// same fingerprint block on ready (single-flight — one Compile per
// topology however many clients race on a cold cache).  Entries are
// refcounted: eviction only marks an entry dead, and the solver's
// Close runs when the last in-flight request releases it, so a run is
// never torn down under a live request.
type entry struct {
	key    string
	ready  chan struct{} // closed once solver/err are set
	solver session
	err    error

	refs   int // guarded by cache.mu
	dead   bool
	pinned bool // guarded by cache.mu; pinned entries are skipped by LRU eviction
	elem   *list.Element

	// Serving state attached to the solver, owned by the handlers:
	// wmu serializes weight-snapshot installs so the weightsKey
	// bookkeeping matches the installed snapshot, and memo caches
	// responses per weight vector (deterministic algorithms make
	// identical requests memoizable bit-for-bit).
	wmu        sync.Mutex
	weightsKey string // hash of the solver's current snapshot weights
	memo       *memo
}

// cache is a fingerprint-keyed LRU of compiled sessions of one kind
// with single-flight compilation and refcounted eviction.
type cache struct {
	kind    string // "vertexcover" or "setcover"
	mu      sync.Mutex
	max     int
	entries map[string]*entry
	lru     *list.List // front = most recently used; values are *entry
	ctrs    *counters
	memoCap int
}

func newCache(kind string, max, memoCap int, ctrs *counters) *cache {
	return &cache{
		kind: kind, max: max, entries: make(map[string]*entry),
		lru: list.New(), ctrs: ctrs, memoCap: memoCap,
	}
}

// acquire returns the entry for key, compiling it through compile on a
// miss.  hit reports whether an already compiled (or compiling) session
// served the request; a hit counts in CacheHits.  Waiting for another
// request's in-flight compile honours ctx, so an abandoned client frees
// its admission slot instead of parking on a slow compile.  The caller
// must release the entry when done with the session; on error no
// reference is retained.
func (c *cache) acquire(ctx context.Context, key string, compile func() (session, error)) (e *entry, hit bool, err error) {
	c.mu.Lock()
	if e = c.entries[key]; e != nil {
		e.refs++
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			c.release(e)
			return nil, true, ctx.Err()
		}
		if e.err != nil {
			c.release(e)
			return nil, true, e.err
		}
		c.ctrs.CacheHits.Add(1)
		return e, true, nil
	}
	e = &entry{key: key, ready: make(chan struct{}), refs: 1, memo: newMemo(c.memoCap)}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.evictOverflowLocked()
	c.mu.Unlock()

	e.solver, e.err = compile()
	close(e.ready)
	if e.err != nil {
		// Failed compiles are not cached: drop the placeholder so a
		// later (possibly corrected) request retries.
		c.mu.Lock()
		c.removeLocked(e)
		c.mu.Unlock()
		return nil, false, e.err
	}
	return e, false, nil
}

// lookup returns the entry for key without compiling, or nil when the
// topology is not cached; a found entry counts in CacheHits.  The
// caller must release a non-nil entry; waiting on an in-flight compile
// honours ctx like acquire.
func (c *cache) lookup(ctx context.Context, key string) (*entry, error) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		c.mu.Unlock()
		return nil, nil
	}
	e.refs++
	c.lru.MoveToFront(e.elem)
	c.mu.Unlock()
	select {
	case <-e.ready:
	case <-ctx.Done():
		c.release(e)
		return nil, ctx.Err()
	}
	if e.err != nil {
		c.release(e)
		return nil, e.err
	}
	c.ctrs.CacheHits.Add(1)
	return e, nil
}

// release drops one reference; a dead (evicted) entry's solver is
// closed when the last reference goes.  It also re-runs eviction:
// overflow that persisted because every LRU-tail entry was referenced
// must be trimmed when those references drain, not only on the next
// compile miss.
func (c *cache) release(e *entry) {
	c.mu.Lock()
	e.refs--
	closeNow := e.dead && e.refs == 0
	if !closeNow {
		c.evictOverflowLocked()
	}
	c.mu.Unlock()
	if closeNow {
		e.closeSolver()
	}
}

// evictOverflowLocked trims the LRU tail past the capacity.  Entries
// still referenced by in-flight requests are skipped — the cache may
// transiently exceed its capacity by the number of concurrent
// requests, which admission control bounds — and so are pinned
// entries, which operators have promised a slot (the cache then holds
// capacity + pinned solvers; pinning is an explicit operator trade).
func (c *cache) evictOverflowLocked() {
	for c.lru.Len() > c.max {
		victim := (*entry)(nil)
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			if cand := el.Value.(*entry); cand.refs == 0 && !cand.pinned {
				victim = cand
				break
			}
		}
		if victim == nil {
			return
		}
		c.removeLocked(victim)
		c.ctrs.Evictions.Add(1)
		go victim.closeSolver() // refs == 0: nobody else will
	}
}

// removeLocked unlinks an entry from the map and LRU list and marks it
// dead; the solver close is the caller's business (refs may be held).
// Already-dead entries are left alone: closeAll may have unlinked the
// entry (and reinitialized the LRU ring) while a failing compile was
// in flight, and removing a stale element again would corrupt the
// fresh ring.
func (c *cache) removeLocked(e *entry) {
	if e.dead {
		return
	}
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	e.dead = true
}

// closeSolver closes the compiled solver, if compilation succeeded.
func (e *entry) closeSolver() {
	if e.err == nil {
		e.solver.Close()
	}
}

// len reports the number of cached entries.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// solverInfo is one row of the GET /v1/solvers listing.
type solverInfo struct {
	Fingerprint string `json:"fingerprint"`
	Kind        string `json:"kind"` // "vertexcover" or "setcover"
	Refs        int    `json:"refs"`
	Pinned      bool   `json:"pinned"`
	MemoEntries int    `json:"memo_entries"`
	Compiling   bool   `json:"compiling,omitempty"`
}

// list snapshots the cache contents in LRU order (most recently used
// first) for the cache operations API.
func (c *cache) list() []solverInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]solverInfo, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		compiling := true
		select {
		case <-e.ready:
			compiling = false
		default:
		}
		out = append(out, solverInfo{
			Fingerprint: e.key, Kind: c.kind, Refs: e.refs,
			Pinned: e.pinned, MemoEntries: e.memo.len(), Compiling: compiling,
		})
	}
	return out
}

// remove expires an entry on operator request, reporting whether the
// key was cached.  Like LRU eviction it only unlinks: a solver still
// referenced by in-flight requests closes when the last reference
// releases.
func (c *cache) remove(key string) bool {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		c.mu.Unlock()
		return false
	}
	closeNow := e.refs == 0
	c.removeLocked(e)
	c.ctrs.Evictions.Add(1)
	c.mu.Unlock()
	if closeNow {
		// refs == 0 implies the compile finished (the compiling request
		// holds a reference until release), so closing cannot race it.
		go e.closeSolver()
	}
	return true
}

// setPinned pins or unpins an entry, reporting whether the key was
// cached.  Unpinning re-runs eviction: overflow the pin was holding
// back must drain.
func (c *cache) setPinned(key string, pinned bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		return false
	}
	e.pinned = pinned
	if !pinned {
		c.evictOverflowLocked()
	}
	return true
}

// count reports the compiled sessions that satisfy pred.
func (c *cache) count(pred func(session) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		select {
		case <-e.ready:
			if e.err == nil && pred(e.solver) {
				n++
			}
		default:
		}
	}
	return n
}

// pinnedCount reports the number of pinned entries.
func (c *cache) pinnedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if el.Value.(*entry).pinned {
			n++
		}
	}
	return n
}

// closeAll evicts everything; entries still referenced close when
// their last reference releases.
func (c *cache) closeAll() {
	c.mu.Lock()
	var toClose []*entry
	for _, e := range c.entries {
		if !e.dead {
			if e.refs == 0 {
				toClose = append(toClose, e)
			}
			e.dead = true
		}
	}
	c.entries = make(map[string]*entry)
	c.lru.Init()
	c.mu.Unlock()
	// A ref-free entry is always fully compiled: the compiling request
	// holds a reference from insertion until its release.
	for _, e := range toClose {
		e.closeSolver()
	}
}

// memo is a small per-solver LRU of finished responses, keyed by the
// request's full result-determining signature (algorithm, weights
// hash, options).  The algorithms are deterministic — identical
// topology, weights and options give bit-identical results on every
// engine — so serving a memoized response is indistinguishable from
// re-running, at none of the cost.  Progress-streaming requests bypass
// it (they want the rounds, not just the answer).
type memo struct {
	mu  sync.Mutex
	max int
	m   map[string]*list.Element
	lru *list.List // values are memoItem
}

type memoItem struct {
	key string
	val response
}

func newMemo(max int) *memo {
	return &memo{max: max, m: make(map[string]*list.Element), lru: list.New()}
}

func (mm *memo) get(key string) (response, bool) {
	if mm.max <= 0 {
		return nil, false
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	el, ok := mm.m[key]
	if !ok {
		return nil, false
	}
	mm.lru.MoveToFront(el)
	return el.Value.(memoItem).val, true
}

func (mm *memo) len() int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.lru.Len()
}

func (mm *memo) put(key string, val response) {
	if mm.max <= 0 {
		return
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if el, ok := mm.m[key]; ok {
		el.Value = memoItem{key: key, val: val}
		mm.lru.MoveToFront(el)
		return
	}
	mm.m[key] = mm.lru.PushFront(memoItem{key: key, val: val})
	for mm.lru.Len() > mm.max {
		tail := mm.lru.Back()
		delete(mm.m, tail.Value.(memoItem).key)
		mm.lru.Remove(tail)
	}
}
