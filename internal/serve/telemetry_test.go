package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"anoncover"
)

// getRuns fetches and decodes GET /v1/runs.
func getRuns(t *testing.T, cl *http.Client, base, query string) runsResponse {
	t.Helper()
	resp, err := cl.Get(base + "/v1/runs" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/runs status %d", resp.StatusCode)
	}
	var rr runsResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return rr
}

// TestRunIDPropagation: every request gets a run ID — the client's
// X-Request-Id when usable, a generated one otherwise — echoed in the
// X-Run-Id response header and recorded in the /v1/runs ring with the
// request's cache class and phase timings.
func TestRunIDPropagation(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := ts.Client()

	body, _ := gridText(t, 4, 4, nil)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/vertexcover?verify=true", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "client-pinned-id-1")
	resp, err := cl.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Run-Id"); got != "client-pinned-id-1" {
		t.Fatalf("X-Run-Id %q, want the client's X-Request-Id", got)
	}

	// A second request without the header gets a generated ID.
	resp, err = cl.Post(ts.URL+"/v1/vertexcover", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	genID := resp.Header.Get("X-Run-Id")
	if genID == "" {
		t.Fatal("no X-Run-Id on a request without X-Request-Id")
	}

	// The ring has both records, newest first, fully annotated.
	rr := getRuns(t, cl, ts.URL, "")
	if len(rr.Runs) != 2 {
		t.Fatalf("run log holds %d records, want 2", len(rr.Runs))
	}
	if rr.Runs[0].ID != genID || rr.Runs[1].ID != "client-pinned-id-1" {
		t.Fatalf("run log order/IDs wrong: %q then %q", rr.Runs[0].ID, rr.Runs[1].ID)
	}
	first := rr.Runs[1]
	if first.Algo != "vertexcover" || first.Cache != "compile" || first.Status != http.StatusOK || first.Outcome != "ok" {
		t.Fatalf("first record poorly annotated: %+v", first)
	}
	if first.Rounds == 0 || first.Fingerprint == "" {
		t.Fatalf("first record missing run results: %+v", first)
	}
	if first.RunMS <= 0 || first.TotalMS <= 0 {
		t.Fatalf("first record missing phase timings: %+v", first)
	}
	if second := rr.Runs[0]; second.Cache != "memo" && second.Cache != "hit" {
		// verify defaults to true, so this is the same memo key; a hit
		// is also acceptable: what matters is that it did not recompile.
		t.Fatalf("second record cache %q, want memo or hit", second.Cache)
	}

	// Bounded and validated query.
	if got := getRuns(t, cl, ts.URL, "?n=1"); len(got.Runs) != 1 || got.Runs[0].ID != genID {
		t.Fatalf("?n=1 returned %+v", got.Runs)
	}
	if resp, err := cl.Get(ts.URL + "/v1/runs?n=0"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("?n=0 status %d, want 400", resp.StatusCode)
		}
	}

	// An unusable client ID (whitespace) is replaced, not echoed.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/vertexcover", strings.NewReader(body))
	req.Header.Set("X-Request-Id", "has space")
	resp, err = cl.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Run-Id"); got == "has space" || got == "" {
		t.Fatalf("unusable client ID handling: X-Run-Id %q", got)
	}
}

// TestCoalescedAbandonAccounting: a joiner that abandons a coalesced
// flight is counted once, as ClientGone — never as a RunError, and
// never silently under the leader's outcome.  The test holds the
// flight open itself (timing a real run against a client hangup over
// HTTP is hopelessly racy), parks a joiner on it through serve, and
// kills the joiner's context in two scenarios: while the leader is
// still running, and — the accounting race — with the leader's own
// 499 failure already resolved when the joiner wakes.
func TestCoalescedAbandonAccounting(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()

	g := anoncover.GridGraph(4, 4)
	fp := g.Fingerprint()
	e, _, err := srv.vc.acquire(context.Background(), fp, func() (session, error) {
		sol, err := anoncover.Compile(g)
		return localVC{sol}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.vc.release(e)

	// park runs serve as a joiner on an already-led flight and
	// cancels it, returning the recorded response after resolve has
	// settled the flight.
	park := func(t *testing.T, p runParams, resolve func(f *flight, fkey string)) *httptest.ResponseRecorder {
		t.Helper()
		whash := hashWeights(g.Weights())
		fkey := fp + "|" + p.memoKey("vertexcover", whash)
		f, leader := srv.flights.join(fkey)
		if !leader {
			t.Fatal("flight already led")
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rec := httptest.NewRecorder()
		before := srv.ctrs.Coalesced.Load()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.serve(rec, ctx, p, "vertexcover", e, g.Weights(), true, time.Now())
		}()
		deadline := time.Now().Add(5 * time.Second)
		for srv.ctrs.Coalesced.Load() == before {
			if time.Now().After(deadline) {
				t.Fatal("joiner never coalesced")
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		resolve(f, fkey)
		<-done
		return rec
	}

	gone, errs := srv.ctrs.ClientGone.Load(), srv.ctrs.RunErrors.Load()
	t.Run("leader-still-running", func(t *testing.T) {
		rec := park(t, runParams{model: "port", every: 1}, func(f *flight, fkey string) {
			// Leader finishes after the joiner has observed its own
			// cancel; resolve with success so the flight is cleaned up.
			f.resp, f.status, f.errMsg = vcResponse{}, 0, ""
			srv.flights.leave(fkey, f)
		})
		if rec.Code != statusClientGone {
			t.Fatalf("joiner status %d, want %d", rec.Code, statusClientGone)
		}
	})
	t.Run("leader-failed-racing-cancel", func(t *testing.T) {
		// Distinct scramble → distinct flight key, so the first
		// subtest's flight cannot interfere.
		rec := park(t, runParams{model: "port", every: 1, scramble: 42}, func(f *flight, fkey string) {
			// The leader's own client-gone failure resolves the flight
			// while the joiner's context is already dead: whichever
			// select arm wins, the joiner must classify by ITS OWN
			// context, not inherit (or retry) the leader's outcome.
			f.resp, f.status, f.errMsg = vcResponse{}, statusClientGone, "client went away: leader"
			srv.flights.leave(fkey, f)
		})
		if rec.Code != statusClientGone {
			t.Fatalf("joiner status %d, want %d", rec.Code, statusClientGone)
		}
	})
	if got := srv.ctrs.ClientGone.Load() - gone; got != 2 {
		t.Fatalf("2 abandoned joiners counted as ClientGone %d times", got)
	}
	if got := srv.ctrs.RunErrors.Load() - errs; got != 0 {
		t.Fatalf("abandoned joiners counted as %d run errors", got)
	}
}

// TestBatchedAbandonAccounting: a client abandoning a request parked
// in the batch window is counted once as ClientGone; the batch still
// runs for its co-tenants and no RunError is recorded.
func TestBatchedAbandonAccounting(t *testing.T) {
	srv := New(Config{BatchWindow: 150 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := ts.Client()

	body, _ := gridText(t, 3, 3, nil)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/vertexcover", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond) // well inside the 150ms window
		cancel()
	}()
	if resp, err := cl.Do(req); err == nil {
		resp.Body.Close()
		t.Skip("batch flushed before the hangup landed; nothing to observe")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := serverStats(t, cl, ts.URL)
		if st.ClientGone == 1 && st.BatchRuns >= 1 {
			if st.RunErrors != 0 {
				t.Fatalf("abandoned batch tenant counted as run error: %+v", st)
			}
			if st.Batched != 1 {
				t.Fatalf("batch occupancy accounting off: %+v", st)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned batch tenant not accounted: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStatsBuildInfo: /v1/stats carries process identity — start time,
// uptime, and the build's Go version.
func TestStatsBuildInfo(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	st := serverStats(t, ts.Client(), ts.URL)
	if st.StartedAt.IsZero() || time.Since(st.StartedAt) > time.Minute {
		t.Errorf("implausible started_at %v", st.StartedAt)
	}
	if st.UptimeSeconds <= 0 || st.UptimeSeconds > 60 {
		t.Errorf("implausible uptime_seconds %v", st.UptimeSeconds)
	}
	if !strings.HasPrefix(st.GoVersion, "go") {
		t.Errorf("go_version %q does not name a Go release", st.GoVersion)
	}
}
