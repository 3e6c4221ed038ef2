package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"anoncover"
)

func decodeSC(t *testing.T, data []byte) scResponse {
	t.Helper()
	var r scResponse
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	return r
}

func setCoverText(t *testing.T, ins *anoncover.SetCoverInstance) string {
	t.Helper()
	var buf bytes.Buffer
	if err := anoncover.WriteSetCover(&buf, ins); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestServeVerifyByDefault: a request without a verify parameter is
// verified on every path that runs the algorithm (batch window, cold
// compile, weight update, broadcast model, set cover), verify=false
// opts out under a memo key of its own, and an unparsable value is a
// 400.  The certificate-failure counter stays 0 across the whole mix,
// on /v1/stats and on /metrics alike.
func TestServeVerifyByDefault(t *testing.T) {
	srv := New(Config{BatchWindow: 2 * time.Millisecond, MaxConcurrent: 4, QueueDepth: 16})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := ts.Client()

	vc := func(path, body, want string, verified bool) vcResponse {
		t.Helper()
		code, data := post(t, cl, ts.URL+path, body)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, code, data)
		}
		r := decodeVC(t, data)
		if r.Cache != want || r.Verified != verified {
			t.Fatalf("%s: cache=%q verified=%v, want %q and %v", path, r.Cache, r.Verified, want, verified)
		}
		return r
	}

	batched, _ := gridText(t, 3, 3, testWeights(9, 1))
	vc("/v1/vertexcover", batched, "batch", true)

	body, _ := gridText(t, 4, 4, testWeights(16, 2))
	warm(t, cl, ts.URL, body, "")
	r := vc("/v1/vertexcover", body, "hit", true)
	vc("/v1/vertexcover?verify=true", body, "memo", true)
	vc("/v1/vertexcover?verify=false", body, "hit", false)
	vc("/v1/vertexcover?verify=0", body, "memo", false)
	wbody, _ := json.Marshal(weightsBody{Weights: testWeights(16, 3)})
	vc("/v1/vertexcover/"+r.Fingerprint, string(wbody), "update", true)

	bcast, _ := gridText(t, 3, 4, testWeights(12, 4))
	vc("/v1/vertexcover?model=broadcast", bcast, "compile", true)

	code, data := post(t, cl, ts.URL+"/v1/setcover", setCoverText(t, anoncover.RandomSetCover(10, 30, 3, 6, 9, 5)))
	if sr := decodeSC(t, data); code != http.StatusOK || sr.Cache != "compile" || !sr.Verified {
		t.Fatalf("setcover: %d %s", code, data)
	}

	if code, data := post(t, cl, ts.URL+"/v1/vertexcover?verify=maybe", body); code != http.StatusBadRequest {
		t.Fatalf("verify=maybe: %d %s, want 400", code, data)
	}

	st := serverStats(t, cl, ts.URL)
	if st.CertificateFailures != 0 || st.RunErrors != 0 {
		t.Fatalf("certificate_failures=%d run_errors=%d, want 0", st.CertificateFailures, st.RunErrors)
	}
	if st.BatchRuns == 0 {
		t.Fatal("the mix never went through the batch window")
	}
	m := scrape(t, cl, ts.URL)
	if got, ok := m["anoncover_certificate_failures_total"]; !ok || got != 0 {
		t.Fatalf("anoncover_certificate_failures_total = %v (present=%v), want 0", got, ok)
	}
}

// TestServeDifferentialOracle holds served covers to the paper's
// ratios against the exact optimum: on small instances sent through
// HTTP with verify=true, a vertex cover weighs at most 2·OPT and a set
// cover at most f·OPT.
func TestServeDifferentialOracle(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := ts.Client()

	for seed := int64(1); seed <= 6; seed++ {
		g := anoncover.RandomGraph(14, 24, 5, seed)
		g.WeighRandom(20, seed)
		var buf bytes.Buffer
		if err := anoncover.WriteGraph(&buf, g); err != nil {
			t.Fatal(err)
		}
		code, data := post(t, cl, ts.URL+"/v1/vertexcover?verify=true", buf.String())
		if code != http.StatusOK {
			t.Fatalf("vertexcover seed %d: %d %s", seed, code, data)
		}
		_, opt := anoncover.OptimalVertexCover(g)
		if r := decodeVC(t, data); !r.Verified || r.Weight > 2*opt {
			t.Errorf("vertexcover seed %d: verified=%v weight %d, OPT %d", seed, r.Verified, r.Weight, opt)
		}

		ins := anoncover.RandomSetCover(8, 16, 3, 5, 20, seed)
		code, data = post(t, cl, ts.URL+"/v1/setcover?verify=true", setCoverText(t, ins))
		if code != http.StatusOK {
			t.Fatalf("setcover seed %d: %d %s", seed, code, data)
		}
		_, opt = anoncover.OptimalSetCover(ins)
		f := int64(ins.MaxFrequency())
		if r := decodeSC(t, data); !r.Verified || r.Weight > f*opt {
			t.Errorf("setcover seed %d: verified=%v weight %d, f %d, OPT %d", seed, r.Verified, r.Weight, f, opt)
		}
	}
}

// badCertificate is a session whose every run fails verification.
type badCertificate struct{ session }

func (badCertificate) run(context.Context, runParams, []int64, func(anoncover.RoundInfo)) (ran, error) {
	return ran{algo: "vertexcover", verify: func() error { return errors.New("bogus cover") }}, nil
}

// TestExecCountsCertificateFailures: a run whose cover fails
// verification is a 500 counted as a certificate failure, and a
// request that opted out of verification is not checked at all.
func TestExecCountsCertificateFailures(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	e := &entry{key: "bad", solver: badCertificate{}}
	_, _, status, msg := srv.exec(context.Background(), runParams{verify: true}, e, nil, "hit", nil)
	if status != http.StatusInternalServerError || !strings.Contains(msg, "INVARIANT VIOLATION") {
		t.Fatalf("failed certificate: status %d %q", status, msg)
	}
	if _, _, status, msg = srv.exec(context.Background(), runParams{}, e, nil, "hit", nil); status != 0 {
		t.Fatalf("verify=false: status %d %q", status, msg)
	}
	if st := srv.ctrs.snapshot(); st.CertificateFailures != 1 || st.RunErrors != 1 {
		t.Fatalf("certificate_failures=%d run_errors=%d, want 1 and 1", st.CertificateFailures, st.RunErrors)
	}
}
