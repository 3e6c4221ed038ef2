package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"anoncover"
)

// warm compiles a topology through the warm endpoint and returns the
// decoded response.
func warm(t *testing.T, cl *http.Client, base, body, query string) warmResponse {
	t.Helper()
	code, data := post(t, cl, base+"/v1/solvers/vertexcover"+query, body)
	if code != http.StatusOK {
		t.Fatalf("warm: %d %s", code, data)
	}
	var wr warmResponse
	if err := json.Unmarshal(data, &wr); err != nil {
		t.Fatal(err)
	}
	return wr
}

// TestServeCoalescing: N concurrent identical requests execute one
// run; everyone else joins the flight (or hits the memo the leader
// fills) and gets the bit-identical shared response.
func TestServeCoalescing(t *testing.T) {
	// Joiners hold their admission slot while parked on the flight, so
	// the queue must fit the whole burst.
	srv := New(Config{MaxConcurrent: 8, QueueDepth: 32})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := ts.Client()

	// Big enough that the run is in flight while the burst lands (the
	// timeout test shows this instance exceeds 1ms); compile it ahead
	// of the burst so coalescing — not compile single-flight — is what
	// the counters measure.
	w := testWeights(900, 23)
	body, g := gridText(t, 30, 30, w)
	warm(t, cl, ts.URL, body, "")
	ref := anoncover.VertexCover(cloneWeighted(g, w))

	const clients = 8
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		resps []vcResponse
	)
	gate := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			code, data := post(t, cl, ts.URL+"/v1/vertexcover?verify=true", body)
			if code != http.StatusOK {
				t.Errorf("status %d: %s", code, data)
				return
			}
			var r vcResponse
			if err := json.Unmarshal(data, &r); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			resps = append(resps, r)
			mu.Unlock()
		}()
	}
	close(gate)
	wg.Wait()
	if len(resps) != clients {
		t.Fatalf("got %d responses", len(resps))
	}
	for _, r := range resps {
		if r.Weight != ref.Weight || !reflect.DeepEqual(r.Cover, coverIndices(ref.Cover)) {
			t.Fatalf("response (cache=%s) diverged from the solo reference", r.Cache)
		}
		if !r.Verified {
			t.Fatalf("response (cache=%s) not verified", r.Cache)
		}
	}
	st := serverStats(t, cl, ts.URL)
	if st.Runs != 1 {
		t.Errorf("runs = %d, want 1 (coalescing)", st.Runs)
	}
	if st.Coalesced+st.MemoHits != clients-1 {
		t.Errorf("coalesced %d + memo hits %d != %d joiners", st.Coalesced, st.MemoHits, clients-1)
	}
	if st.RunErrors != 0 || st.ClientGone != 0 {
		t.Errorf("errors during coalesced burst: %+v", st)
	}
}

// TestServeBatching: concurrent small requests for distinct uncached
// topologies run as ONE pooled batch, each response bit-identical to a
// solo run of its own instance; duplicates inside the window coalesce
// into one union component.
func TestServeBatching(t *testing.T) {
	// Requests parked in the window hold their admission slot, so the
	// queue must fit the whole burst.
	srv := New(Config{BatchWindow: 50 * time.Millisecond, MaxConcurrent: 8, QueueDepth: 32})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := ts.Client()

	dims := [][2]int{{3, 4}, {4, 4}, {2, 7}, {5, 3}, {3, 3}, {4, 5}}
	bodies := make([]string, len(dims))
	refs := make([]*anoncover.VertexCoverResult, len(dims))
	for i, d := range dims {
		w := testWeights(d[0]*d[1], int64(100+i))
		body, g := gridText(t, d[0], d[1], w)
		bodies[i] = body
		refs[i] = anoncover.VertexCover(cloneWeighted(g, w))
	}
	// Two duplicates of topology 0 ride along: same fingerprint and
	// weights, so they share its union component.
	reqs := append(append([]string{}, bodies...), bodies[0], bodies[0])

	var wg sync.WaitGroup
	resps := make([]vcResponse, len(reqs))
	gate := make(chan struct{})
	for i, body := range reqs {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			<-gate
			code, data := post(t, cl, ts.URL+"/v1/vertexcover?verify=true", body)
			if code != http.StatusOK {
				t.Errorf("request %d: %d %s", i, code, data)
				return
			}
			if err := json.Unmarshal(data, &resps[i]); err != nil {
				t.Error(err)
			}
		}(i, body)
	}
	close(gate)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, r := range resps {
		ref := refs[i%len(dims)]
		if i >= len(dims) {
			ref = refs[0]
		}
		if r.Weight != ref.Weight || !reflect.DeepEqual(r.Cover, coverIndices(ref.Cover)) ||
			r.Rounds != ref.Rounds {
			t.Errorf("request %d (cache=%s): batched result diverged from solo run", i, r.Cache)
		}
		if r.Cache != "batch" {
			t.Errorf("request %d: cache label %q, want batch", i, r.Cache)
		}
		if !r.Verified {
			t.Errorf("request %d: not verified", i)
		}
		if r.Batch != len(reqs) {
			t.Errorf("request %d: batch occupancy %d, want %d", i, r.Batch, len(reqs))
		}
	}
	st := serverStats(t, cl, ts.URL)
	if st.BatchRuns != 1 || st.Runs != 1 {
		t.Errorf("runs=%d batch_runs=%d, want one pooled run", st.Runs, st.BatchRuns)
	}
	if st.Batched != int64(len(reqs)) {
		t.Errorf("batched = %d, want %d", st.Batched, len(reqs))
	}
	if st.Coalesced != 2 {
		t.Errorf("coalesced = %d, want 2 (intra-batch duplicates)", st.Coalesced)
	}
	if st.Compiles != 0 {
		t.Errorf("compiles = %d: batch runs must not compile solvers", st.Compiles)
	}
	if st.BatchOccupancy != float64(len(reqs)) {
		t.Errorf("batch occupancy %v, want %d", st.BatchOccupancy, len(reqs))
	}
}

// TestServeBatchPromotion: with batching on, a warmed topology skips
// the window and runs solo on its cached solver.
func TestServeBatchPromotion(t *testing.T) {
	srv := New(Config{BatchWindow: 5 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := ts.Client()

	body, _ := gridText(t, 3, 4, testWeights(12, 31))
	if wr := warm(t, cl, ts.URL, body, "?pin=true"); wr.Cache != "compile" || !wr.Pinned {
		t.Fatalf("warm: %+v", wr)
	}
	code, data := post(t, cl, ts.URL+"/v1/vertexcover", body)
	if code != http.StatusOK {
		t.Fatalf("request: %d %s", code, data)
	}
	if r := decodeVC(t, data); r.Cache != "hit" || r.Batch != 0 {
		t.Fatalf("warmed topology response: cache=%q batch=%d, want solo cache hit", r.Cache, r.Batch)
	}
	st := serverStats(t, cl, ts.URL)
	if st.BatchRuns != 0 || st.Batched != 0 {
		t.Errorf("warmed topology went through the window: %+v", st)
	}
	if st.CacheHits != 1 || st.PinnedSolvers != 1 {
		t.Errorf("cache_hits=%d pinned=%d, want 1 and 1", st.CacheHits, st.PinnedSolvers)
	}
}

// TestServeMemoScrambleKey is the regression for the memo-key bug: two
// requests differing only in the scramble seed are distinct runs and
// must not share a memo slot, while repeating a seed is a memo hit.
func TestServeMemoScrambleKey(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := ts.Client()

	body, _ := gridText(t, 4, 4, testWeights(16, 41))
	for _, seed := range []string{"1", "2"} {
		code, data := post(t, cl, ts.URL+"/v1/vertexcover?scramble="+seed, body)
		if code != http.StatusOK {
			t.Fatalf("scramble=%s: %d %s", seed, code, data)
		}
		if r := decodeVC(t, data); r.Cache == "memo" {
			t.Fatalf("scramble=%s served from memo across seeds", seed)
		}
	}
	// The repo's algorithms are delivery-order invariant, so the two
	// covers coincide — the bug is the shared memo slot, which the run
	// counters expose: each seed must have executed its own run.
	st := serverStats(t, cl, ts.URL)
	if st.Runs != 2 || st.MemoHits != 0 {
		t.Fatalf("runs=%d memo_hits=%d: scramble seeds shared a memo slot", st.Runs, st.MemoHits)
	}
	code, data := post(t, cl, ts.URL+"/v1/vertexcover?scramble=2", body)
	if code != http.StatusOK {
		t.Fatalf("repeat: %d %s", code, data)
	}
	if r := decodeVC(t, data); r.Cache != "memo" {
		t.Fatalf("repeated seed not memoized: cache=%q", r.Cache)
	}
}

// TestServeStreamHeartbeat: progress streams commit their status line
// and a heartbeat before the first round, so a run failing mid-stream
// reports through a terminal error record on an already-open 200 — not
// an HTTP error status.
func TestServeStreamHeartbeat(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := ts.Client()

	small, _ := gridText(t, 3, 3, nil)
	t.Run("ndjson-header", func(t *testing.T) {
		code, data := post(t, cl, ts.URL+"/v1/vertexcover?progress=ndjson", small)
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		first := strings.SplitN(string(data), "\n", 2)[0]
		var hdr struct {
			Stream string `json:"stream"`
			RunID  string `json:"run_id"`
		}
		if err := json.Unmarshal([]byte(first), &hdr); err != nil {
			t.Fatalf("first ndjson line %q does not parse: %v", first, err)
		}
		if hdr.Stream != "vertexcover" || hdr.RunID == "" {
			t.Fatalf("first ndjson line %q, want stream header with run id", first)
		}
	})
	t.Run("sse-comment", func(t *testing.T) {
		code, data := post(t, cl, ts.URL+"/v1/vertexcover?progress=sse", small)
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		first := strings.SplitN(string(data), "\n", 2)[0]
		if !strings.HasPrefix(first, ": stream vertexcover run ") ||
			strings.TrimPrefix(first, ": stream vertexcover run ") == "" {
			t.Fatalf("sse stream does not open with the heartbeat comment:\n%s", data)
		}
	})
	t.Run("eager-status", func(t *testing.T) {
		// The stream opens before the run: a deadline that expires
		// mid-run arrives as an error record on the open stream, not
		// as a 504 status (which would prove the lazy-open bug).
		big, _ := gridText(t, 30, 30, testWeights(900, 43))
		code, data := post(t, cl, ts.URL+"/v1/vertexcover?progress=sse&timeout_ms=1", big)
		if code != http.StatusOK {
			t.Fatalf("status %d: stream not opened before the run", code)
		}
		if !strings.Contains(string(data), "event: error") {
			t.Fatalf("open stream missing terminal error record:\n%s", data)
		}
	})
}

// TestServeClientGone: a client hanging up mid-run is accounted as
// ClientGone, not as a server-side RunError.
func TestServeClientGone(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := ts.Client()

	body, _ := gridText(t, 80, 80, testWeights(6400, 47))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Hang up only once the whole instance is on the wire: a fixed
	// sleep lets a loaded machine cancel before the upload completes,
	// and a request that never reaches the run has nothing to count.
	sent := &eofSignal{r: strings.NewReader(body), eof: make(chan struct{})}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/vertexcover", sent)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(body))
	go func() {
		select {
		case <-sent.eof:
			cancel()
		case <-ctx.Done():
		}
	}()
	if resp, err := cl.Do(req); err == nil {
		resp.Body.Close()
		t.Skip("run finished before the hangup landed; nothing to observe")
	}
	// The handler finishes after the client is gone; poll the counters.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := serverStats(t, cl, ts.URL)
		if st.ClientGone >= 1 {
			if st.RunErrors != 0 {
				t.Fatalf("disconnect counted as run error: %+v", st)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ClientGone never counted: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// eofSignal closes eof once its reader is drained: the request body
// has been handed to the transport in full.
type eofSignal struct {
	r    io.Reader
	eof  chan struct{}
	once sync.Once
}

func (e *eofSignal) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF {
		e.once.Do(func() { close(e.eof) })
	}
	return n, err
}

// TestServeCacheOps walks the cache operations API: warm, list, pin
// under eviction pressure, unpin, expire.
func TestServeCacheOps(t *testing.T) {
	srv := New(Config{CacheSize: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := ts.Client()

	bodyA, _ := gridText(t, 3, 4, nil)
	bodyB, _ := gridText(t, 4, 3, nil)
	bodyC, _ := gridText(t, 2, 6, nil)

	wrA := warm(t, cl, ts.URL, bodyA, "?pin=true")
	if wrA.Cache != "compile" || !wrA.Pinned || wrA.Kind != "vertexcover" {
		t.Fatalf("warm A: %+v", wrA)
	}

	// Churn past the capacity: pinned A must survive while B and C
	// cycle through the single unpinned slot.
	for _, b := range []string{bodyB, bodyC} {
		if code, data := post(t, cl, ts.URL+"/v1/vertexcover", b); code != http.StatusOK {
			t.Fatalf("churn: %d %s", code, data)
		}
	}
	list := func() map[string]solverInfo {
		resp, err := cl.Get(ts.URL + "/v1/solvers")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr solversResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]solverInfo)
		for _, si := range sr.Solvers {
			out[si.Fingerprint] = si
		}
		return out
	}
	solvers := list()
	si, ok := solvers[wrA.Fingerprint]
	if !ok || !si.Pinned {
		t.Fatalf("pinned solver evicted under pressure: %+v", solvers)
	}
	st := serverStats(t, cl, ts.URL)
	if st.PinnedSolvers != 1 || st.Evictions == 0 {
		t.Fatalf("pinned=%d evictions=%d: churn not exercised around the pin", st.PinnedSolvers, st.Evictions)
	}

	// Unpin: the deferred overflow drains immediately.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/solvers/"+wrA.Fingerprint+"/pin", nil)
	if resp, err := cl.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("unpin: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}
	if st := serverStats(t, cl, ts.URL); st.VertexCoverSolvers != 1 || st.PinnedSolvers != 0 {
		t.Fatalf("after unpin: %d solvers, %d pinned (capacity 1)", st.VertexCoverSolvers, st.PinnedSolvers)
	}

	// Expire whatever survived; a second delete of the same key is 404.
	var fp string
	for k := range list() {
		fp = k
	}
	del := func(fp string) int {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/solvers/"+fp, nil)
		resp, err := cl.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(fp); code != http.StatusOK {
		t.Fatalf("expire: %d", code)
	}
	if code := del(fp); code != http.StatusNotFound {
		t.Fatalf("double expire: %d, want 404", code)
	}
	if st := serverStats(t, cl, ts.URL); st.VertexCoverSolvers != 0 {
		t.Fatalf("solver survived expiry: %+v", st)
	}

	// Pinning an unknown fingerprint is a 404, not a silent no-op.
	resp, err := cl.Post(ts.URL+"/v1/solvers/deadbeef/pin", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pin unknown: %d, want 404", resp.StatusCode)
	}
}

// TestServeFleetSoak interleaves every fleet-scale mechanism at once —
// coalesced bursts, batch windows, cache-ops churn, LRU eviction —
// and checks each answer against the solo reference.  Run under -race
// by CI's race step.
func TestServeFleetSoak(t *testing.T) {
	srv := New(Config{CacheSize: 2, BatchWindow: 2 * time.Millisecond, MaxConcurrent: 8, QueueDepth: 128})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := ts.Client()

	type scenario struct {
		body   string
		fp     string
		weight int64
	}
	dims := [][2]int{{3, 4}, {4, 4}, {2, 7}, {5, 3}, {6, 6}}
	scens := make([]scenario, len(dims))
	for i, d := range dims {
		w := testWeights(d[0]*d[1], int64(200+i))
		body, g := gridText(t, d[0], d[1], w)
		scens[i] = scenario{body: body, fp: g.Fingerprint(),
			weight: anoncover.VertexCover(cloneWeighted(g, w)).Weight}
	}

	iters := 10
	if testing.Short() {
		iters = 3
	}
	var wg sync.WaitGroup
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				sc := scens[(worker+it)%len(scens)]
				switch worker % 4 {
				case 0, 1: // run traffic: batched, coalesced or cached
					code, data := post(t, cl, ts.URL+"/v1/vertexcover?verify=true", sc.body)
					if code != http.StatusOK {
						t.Errorf("worker %d it %d: %d %s", worker, it, code, data)
						return
					}
					var r vcResponse
					if err := json.Unmarshal(data, &r); err != nil {
						t.Error(err)
						return
					}
					if r.Weight != sc.weight {
						t.Errorf("worker %d it %d: weight %d != solo %d (cache=%s)",
							worker, it, r.Weight, sc.weight, r.Cache)
						return
					}
				case 2: // cache ops churn: warm, pin, unpin, expire
					warm(t, cl, ts.URL, sc.body, fmt.Sprintf("?pin=%v", it%2 == 0))
					method := http.MethodDelete
					path := "/v1/solvers/" + sc.fp + "/pin"
					if it%3 == 0 {
						path = "/v1/solvers/" + sc.fp
					}
					req, _ := http.NewRequest(method, ts.URL+path, nil)
					if resp, err := cl.Do(req); err == nil {
						resp.Body.Close() // 200 or 404, both fine under churn
					}
				default: // observers
					serverStats(t, cl, ts.URL)
					cl.Get(ts.URL + "/v1/solvers")
				}
			}
		}(worker)
	}
	wg.Wait()
	st := serverStats(t, cl, ts.URL)
	if st.RunErrors != 0 {
		t.Errorf("run errors during fleet soak: %+v", st)
	}
	if st.VertexCoverSolvers > 2+int(st.PinnedSolvers) {
		t.Errorf("cache overflow persisted: %d solvers (capacity 2 + %d pinned)",
			st.VertexCoverSolvers, st.PinnedSolvers)
	}
}
