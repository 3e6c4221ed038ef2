package serve

import "sync"

// Request coalescing: a single-flight layer ahead of the per-solver
// result memo.  Concurrent requests with the same full
// result-determining signature — fingerprint, weights hash and run
// params, i.e. the memo key — join the one in-flight run instead of
// each executing it: the algorithms are deterministic, so the leader's
// response is bit-identical to what every joiner's own run would have
// produced.  Joiners stream nothing (progress requests bypass
// coalescing — they want the rounds) and receive the shared response
// with cache label "coalesced".
//
// The memo alone cannot provide this: it only serves requests arriving
// after a run finishes.  Coalescing covers the thundering-herd window
// while the run is still executing, which at fleet scale is where
// identical requests actually pile up.

// flight is one in-flight run that identical requests may join.  The
// leader fills resp/status/errMsg and closes done; joiners wait on
// done (or their own context).
type flight struct {
	done   chan struct{}
	resp   response // valid when errMsg == ""
	status int      // HTTP status when errMsg != ""
	errMsg string   // non-empty when the leader's run failed
}

// flights is the single-flight registry, keyed by the request's full
// result-determining signature.
type flights struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlights() *flights {
	return &flights{m: make(map[string]*flight)}
}

// join returns the in-flight run for key, creating one when absent.
// leader reports whether this caller owns the run; a leader must
// publish its outcome through leave, however it exits.
func (fs *flights) join(key string) (f *flight, leader bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f := fs.m[key]; f != nil {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	fs.m[key] = f
	return f, true
}

// leave publishes the leader's outcome and wakes every joiner.  The
// flight is unregistered first, so requests arriving later start (or
// join) a fresh run instead of reading a completed flight — the memo
// serves them when the run succeeded.
func (fs *flights) leave(key string, f *flight) {
	fs.mu.Lock()
	delete(fs.m, key)
	fs.mu.Unlock()
	close(f.done)
}
