package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"anoncover/internal/dist"
	"anoncover/internal/obs"
)

// startDistWorkers brings up n in-process shard workers on loopback
// ports and returns their addresses.
func startDistWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		w := dist.NewWorker()
		if err := w.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		addrs[i] = w.Addr()
		go w.Serve()
		t.Cleanup(func() { w.Close() })
	}
	return addrs
}

// TestServeDistributed walks the distributed serving story end to end
// against real workers: a dist-eligible request executes across the
// fleet bit-identically to the local path, weight-only reposts reuse
// the compiled distributed session without recompiling, /v1/stats
// reports the fleet, and the transport counters land on /metrics.
func TestServeDistributed(t *testing.T) {
	addrs := startDistWorkers(t, 2)

	dsrv := New(Config{WorkerAddrs: addrs})
	defer dsrv.Close()
	dts := httptest.NewServer(dsrv.Handler())
	defer dts.Close()

	lsrv := New(Config{})
	defer lsrv.Close()
	lts := httptest.NewServer(lsrv.Handler())
	defer lts.Close()

	client := dts.Client()
	body, _ := gridText(t, 6, 7, testWeights(42, 8))

	code, data := post(t, client, dts.URL+"/v1/vertexcover?verify=true", body)
	if code != http.StatusOK {
		t.Fatalf("distributed run: code %d: %s", code, data)
	}
	dr := decodeVC(t, data)
	if !dr.Verified {
		t.Fatal("distributed response not verified")
	}

	code, data = post(t, client, lts.URL+"/v1/vertexcover?verify=true", body)
	if code != http.StatusOK {
		t.Fatalf("local run: code %d: %s", code, data)
	}
	lr := decodeVC(t, data)
	if dr.Weight != lr.Weight || dr.Rounds != lr.Rounds || len(dr.Cover) != len(lr.Cover) {
		t.Fatalf("distributed != local: weight %d/%d rounds %d/%d cover %d/%d",
			dr.Weight, lr.Weight, dr.Rounds, lr.Rounds, len(dr.Cover), len(lr.Cover))
	}
	for i, v := range dr.Cover {
		if v != lr.Cover[i] {
			t.Fatalf("cover[%d]: distributed %d local %d", i, v, lr.Cover[i])
		}
	}

	// Weight-only repost by fingerprint: served by the cached
	// distributed session — a snapshot install, not a recompile.
	w2 := testWeights(42, 9)
	var sb strings.Builder
	sb.WriteString(`{"weights":[`)
	for i, x := range w2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatInt(x, 10))
	}
	sb.WriteString(`]}`)
	code, data = post(t, client, dts.URL+"/v1/vertexcover/"+dr.Fingerprint+"?verify=true", sb.String())
	if code != http.StatusOK {
		t.Fatalf("weight repost: code %d: %s", code, data)
	}
	r2 := decodeVC(t, data)
	if !r2.Verified || r2.Weight == dr.Weight {
		t.Fatalf("weight repost: verified=%v weight %d (want change from %d)",
			r2.Verified, r2.Weight, dr.Weight)
	}

	st := serverStats(t, client, dts.URL)
	if st.Compiles != 1 {
		t.Fatalf("compiles = %d, want 1 (weight repost must not recompile)", st.Compiles)
	}
	if st.WeightUpdates == 0 {
		t.Fatal("weight repost did not count as a snapshot install")
	}
	if st.Distributed == nil {
		t.Fatal("stats missing distributed block")
	}
	if st.Distributed.Sessions != 1 {
		t.Fatalf("distributed sessions = %d, want 1", st.Distributed.Sessions)
	}
	for _, wh := range st.Distributed.Workers {
		if !wh.OK {
			t.Fatalf("worker %s unhealthy: %s", wh.Addr, wh.Error)
		}
	}
	if st.Distributed.Transport.FramesOut == 0 {
		t.Fatal("coordinator transport shows zero frames out")
	}

	resp, err := client.Get(dts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(metrics), "anoncover_dist_frames_total") {
		t.Fatal("/metrics missing anoncover_dist_frames_total")
	}
}

// postID is post with a pinned X-Request-Id, the handle the trace
// endpoints key on.
func postID(t *testing.T, client *http.Client, url, body, id string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", id)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestServeRunTrace drives the tracing surface end to end over real
// workers: a fleet run stores a merged per-shard trace under its run
// ID, GET /v1/runs/{id} serves the single-run summary with the trace
// flag, GET /v1/runs/{id}/trace serves the full span timeline, memo
// hits and trace=off runs answer 404 with their reason, and the run
// ring filters by outcome and algo.
func TestServeRunTrace(t *testing.T) {
	addrs := startDistWorkers(t, 2)
	srv := New(Config{WorkerAddrs: addrs})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := ts.Client()

	body, _ := gridText(t, 6, 7, testWeights(42, 8))
	code, data := postID(t, cl, ts.URL+"/v1/vertexcover?verify=true", body, "trace-e2e-1")
	if code != http.StatusOK {
		t.Fatalf("fleet run: code %d: %s", code, data)
	}
	dr := decodeVC(t, data)

	// Single-run detail: the record carries the trace marker.
	resp, err := cl.Get(ts.URL + "/v1/runs/trace-e2e-1")
	if err != nil {
		t.Fatal(err)
	}
	var rec obs.RunRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run detail status %d", resp.StatusCode)
	}
	if rec.ID != "trace-e2e-1" || rec.Engine != "distributed" || !rec.Trace {
		t.Fatalf("run detail = %+v, want a traced distributed record", rec)
	}

	// The merged trace: both shards, per-round spans over the full run.
	resp, err = cl.Get(ts.URL + "/v1/runs/trace-e2e-1/trace")
	if err != nil {
		t.Fatal(err)
	}
	var rt obs.RunTrace
	if err := json.NewDecoder(resp.Body).Decode(&rt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	if rt.ID != "trace-e2e-1" || rt.Workers != 2 || len(rt.Shards) != 2 || rt.Partial {
		t.Fatalf("trace header: id=%q workers=%d shards=%d partial=%v",
			rt.ID, rt.Workers, len(rt.Shards), rt.Partial)
	}
	for _, sp := range rt.Shards {
		if len(sp.Rounds) != dr.Rounds {
			t.Fatalf("shard %d recorded %d rounds, run had %d", sp.Shard, len(sp.Rounds), dr.Rounds)
		}
	}
	if len(rt.Rounds) != dr.Rounds || rt.Straggler < 0 {
		t.Fatalf("attribution: %d rounds, straggler %d", len(rt.Rounds), rt.Straggler)
	}

	// A memo hit never contacts the fleet, so it has no trace of its
	// own; the 404 names the cache class.
	code, _ = postID(t, cl, ts.URL+"/v1/vertexcover?verify=true", body, "trace-memo-1")
	if code != http.StatusOK {
		t.Fatalf("memo repost: code %d", code)
	}
	resp, err = cl.Get(ts.URL + "/v1/runs/trace-memo-1/trace")
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(msg), "memo") {
		t.Fatalf("memo trace: status %d body %s", resp.StatusCode, msg)
	}

	// trace=off executes on the fleet but records nothing.
	code, _ = postID(t, cl, ts.URL+"/v1/vertexcover?verify=true&trace=off", body, "trace-off-1")
	if code != http.StatusOK {
		t.Fatalf("trace=off run: code %d", code)
	}
	if resp, err = cl.Get(ts.URL + "/v1/runs/trace-off-1/trace"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace=off trace: status %d, want 404", resp.StatusCode)
	}

	// Unknown IDs on both endpoints.
	for _, p := range []string{"/v1/runs/nope", "/v1/runs/nope/trace"} {
		resp, err := cl.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", p, resp.StatusCode)
		}
	}

	// Ring filters: all three runs were ok/vertexcover; a non-matching
	// outcome filter returns none, and n= bounds after filtering.
	if rr := getRuns(t, cl, ts.URL, "?outcome=ok&algo=vertexcover"); len(rr.Runs) != 3 {
		t.Fatalf("outcome/algo filter returned %d runs, want 3", len(rr.Runs))
	}
	if rr := getRuns(t, cl, ts.URL, "?outcome=error"); len(rr.Runs) != 0 {
		t.Fatalf("outcome=error returned %d runs, want 0", len(rr.Runs))
	}
	if rr := getRuns(t, cl, ts.URL, "?outcome=ok&n=1"); len(rr.Runs) != 1 {
		t.Fatalf("filtered n=1 returned %d runs", len(rr.Runs))
	}

	// Validation: bad trace knobs are rejected up front.
	for _, q := range []string{"?trace=maybe", "?trace_every=0"} {
		code, _ := post(t, cl, ts.URL+"/v1/vertexcover"+q, body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: code %d, want 400", q, code)
		}
	}
}

// TestWorkerMetricsExposition holds the worker's own telemetry surface
// to the same strict OpenMetrics contract as the coordinator's: after
// a fleet run, each worker's registry exposes valid per-shard phase
// histograms with one observation per executed round, a live session
// gauge, and zeroed swap counters.
func TestWorkerMetricsExposition(t *testing.T) {
	const n = 2
	addrs := make([]string, n)
	regs := make([]*obs.Registry, n)
	for i := range addrs {
		w := dist.NewWorker()
		regs[i] = obs.NewRegistry()
		w.RegisterMetrics(regs[i])
		if err := w.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		addrs[i] = w.Addr()
		go w.Serve()
		t.Cleanup(func() { w.Close() })
	}

	srv := New(Config{WorkerAddrs: addrs})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := gridText(t, 6, 7, testWeights(42, 8))
	code, data := post(t, ts.Client(), ts.URL+"/v1/vertexcover", body)
	if code != http.StatusOK {
		t.Fatalf("fleet run: code %d: %s", code, data)
	}
	rounds := decodeVC(t, data).Rounds

	for i, reg := range regs {
		ms := httptest.NewServer(reg.Handler())
		samples := scrape(t, ms.Client(), ms.URL)
		ms.Close()
		if got := samples["anoncover_worker_sessions"]; got != 1 {
			t.Fatalf("worker %d: sessions gauge = %v, want 1", i, got)
		}
		if got := samples["anoncover_worker_generation_swaps_total"]; got != 0 {
			t.Fatalf("worker %d: generation swaps = %v, want 0", i, got)
		}
		for _, phase := range []string{"compute", "serialize", "wait", "send"} {
			key := fmt.Sprintf(`anoncover_worker_round_phase_seconds_count{shard="%d",phase="%s"}`, i, phase)
			if got := samples[key]; got != float64(rounds) {
				t.Fatalf("worker %d: %s = %v, want one observation per round (%d)", i, key, got, rounds)
			}
		}
	}
}

// TestServeDistFallback checks that requests the fleet cannot serve —
// broadcast model, engine overrides, progress streams — fall back to
// the local path instead of erroring.
func TestServeDistFallback(t *testing.T) {
	addrs := startDistWorkers(t, 2)
	srv := New(Config{WorkerAddrs: addrs})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := gridText(t, 4, 4, nil)
	for _, q := range []string{"?model=broadcast", "?engine=sequential"} {
		code, data := post(t, ts.Client(), ts.URL+"/v1/vertexcover"+q, body)
		if code != http.StatusOK {
			t.Fatalf("fallback %s: code %d: %s", q, code, data)
		}
	}
	st := serverStats(t, ts.Client(), ts.URL)
	if st.Distributed.Transport.Runs != 0 {
		t.Fatalf("fallback requests ran on the fleet: %d runs", st.Distributed.Transport.Runs)
	}
}

// TestServeFleetSessionOps: in coordinator mode a fleet-backed entry
// is an ordinary cache entry — listed by GET /v1/solvers, pinnable and
// expirable — and warming a topology compiles the fleet half the next
// plain request runs on, so warm + run costs one compile per topology.
func TestServeFleetSessionOps(t *testing.T) {
	addrs := startDistWorkers(t, 2)
	srv := New(Config{WorkerAddrs: addrs, ProbeInterval: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := ts.Client()

	bodyA, _ := gridText(t, 4, 5, testWeights(20, 1))
	code, data := post(t, cl, ts.URL+"/v1/vertexcover?verify=true", bodyA)
	if code != http.StatusOK {
		t.Fatalf("fleet run: code %d: %s", code, data)
	}
	fpA := decodeVC(t, data).Fingerprint

	resp, err := cl.Get(ts.URL + "/v1/solvers")
	if err != nil {
		t.Fatal(err)
	}
	var sr solversResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sr.Solvers) != 1 || sr.Solvers[0].Fingerprint != fpA || sr.Solvers[0].Kind != "vertexcover" {
		t.Fatalf("GET /v1/solvers = %+v, want the fleet entry %s", sr.Solvers, fpA)
	}
	if code, data := post(t, cl, ts.URL+"/v1/solvers/"+fpA+"/pin", ""); code != http.StatusOK {
		t.Fatalf("pin fleet entry: code %d: %s", code, data)
	}
	if st := serverStats(t, cl, ts.URL); st.PinnedSolvers != 1 {
		t.Fatalf("pinned_solvers = %d, want 1", st.PinnedSolvers)
	}

	// Two warmed topologies, each then served by a plain request: the
	// warm compiles the fleet half and the run uses it.
	for i, rc := range [][2]int{{3, 6}, {5, 3}} {
		body, _ := gridText(t, rc[0], rc[1], testWeights(rc[0]*rc[1], int64(10+i)))
		wr := warm(t, cl, ts.URL, body, "")
		if wr.Cache != "compile" {
			t.Fatalf("warm %d: %+v", i, wr)
		}
		code, data := post(t, cl, ts.URL+"/v1/vertexcover/"+wr.Fingerprint+"?verify=true", "")
		if code != http.StatusOK {
			t.Fatalf("run on warmed topology %d: code %d: %s", i, code, data)
		}
		if r := decodeVC(t, data); !r.Verified || r.Cache != "hit" {
			t.Fatalf("run on warmed topology %d: verified=%v cache=%q", i, r.Verified, r.Cache)
		}
	}
	st := serverStats(t, cl, ts.URL)
	if st.Compiles != 3 || st.Distributed.Transport.Runs != 3 {
		t.Fatalf("compiles=%d fleet runs=%d, want 3 and 3 (one compile per topology)",
			st.Compiles, st.Distributed.Transport.Runs)
	}
	if st.VertexCoverSolvers != 3 || st.Distributed.Sessions != 3 {
		t.Fatalf("vertexcover_solvers=%d sessions=%d, want 3 and 3",
			st.VertexCoverSolvers, st.Distributed.Sessions)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/solvers/"+fpA, nil)
	resp, err = cl.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expire fleet entry: status %d", resp.StatusCode)
	}
	if st := serverStats(t, cl, ts.URL); st.Distributed.Sessions != 2 || st.PinnedSolvers != 0 {
		t.Fatalf("after expiry: sessions=%d pinned=%d, want 2 and 0",
			st.Distributed.Sessions, st.PinnedSolvers)
	}
}

// TestServeBreakerHalfOpenBadBody: a request that fails before any
// fleet contact — here a malformed weights body — must not take the
// half-open breaker's trial slot, or the breaker would stay half-open
// and the healthy fleet would never run again.
func TestServeBreakerHalfOpenBadBody(t *testing.T) {
	addrs := startDistWorkers(t, 2)
	srv := New(Config{WorkerAddrs: addrs, ProbeInterval: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := ts.Client()

	body, _ := gridText(t, 4, 4, testWeights(16, 2))
	code, data := post(t, cl, ts.URL+"/v1/vertexcover", body)
	if code != http.StatusOK {
		t.Fatalf("fleet run: code %d: %s", code, data)
	}
	fp := decodeVC(t, data).Fingerprint

	// An open breaker past its cooldown: the next fleet-eligible
	// request is the half-open trial.
	srv.brk.mu.Lock()
	srv.brk.state = brkOpen
	srv.brk.openedAt = time.Now().Add(-time.Hour)
	srv.brk.mu.Unlock()

	if code, data := post(t, cl, ts.URL+"/v1/vertexcover/"+fp, `{"weights":`); code != http.StatusBadRequest {
		t.Fatalf("malformed body: code %d: %s", code, data)
	}
	code, data = post(t, cl, ts.URL+"/v1/vertexcover/"+fp+"?verify=true", weightsJSON(testWeights(16, 3)))
	if code != http.StatusOK {
		t.Fatalf("valid request: code %d: %s", code, data)
	}
	if r := decodeVC(t, data); !r.Verified || r.Cache == "dist_failover" {
		t.Fatalf("valid request: verified=%v cache=%q", r.Verified, r.Cache)
	}
	st := serverStats(t, cl, ts.URL)
	if st.Distributed.Transport.Runs != 2 || st.Distributed.Breaker != "closed" {
		t.Fatalf("fleet runs=%d breaker=%q, want 2 and closed (the trial ran on the fleet)",
			st.Distributed.Transport.Runs, st.Distributed.Breaker)
	}
}

// TestServeFleetConcurrentHalves drives one fleet-backed entry from
// many goroutines at once, plain requests on the fleet half and engine
// overrides on the local half: every answer is verified, and each half
// compiles exactly once however the requests race.
func TestServeFleetConcurrentHalves(t *testing.T) {
	addrs := startDistWorkers(t, 2)
	srv := New(Config{WorkerAddrs: addrs, ProbeInterval: -1, QueueDepth: 32})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := ts.Client()

	body, _ := gridText(t, 4, 5, testWeights(20, 5))
	fp := warm(t, cl, ts.URL, body, "").Fingerprint

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		q := "?verify=true"
		if i%2 == 1 {
			q += "&engine=sequential"
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := cl.Post(ts.URL+"/v1/vertexcover/"+fp+q, "application/json",
				strings.NewReader(weightsJSON(testWeights(20, int64(100+i)))))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var r vcResponse
			if err := json.NewDecoder(resp.Body).Decode(&r); err != nil || resp.StatusCode != http.StatusOK || !r.Verified {
				t.Errorf("request %d: status %d verified=%v err=%v", i, resp.StatusCode, r.Verified, err)
			}
		}()
	}
	wg.Wait()
	st := serverStats(t, cl, ts.URL)
	if st.Compiles != 2 || st.Distributed.Transport.Runs != 4 || st.Distributed.Failovers != 0 {
		t.Fatalf("compiles=%d fleet runs=%d failovers=%d, want 2, 4 and 0",
			st.Compiles, st.Distributed.Transport.Runs, st.Distributed.Failovers)
	}
}
