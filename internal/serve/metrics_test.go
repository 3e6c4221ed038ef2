package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"anoncover"
	"anoncover/internal/obs"
)

// omFamily is one parsed metric family from an exposition.
type omFamily struct {
	typ     string
	hasHelp bool
}

// parseOpenMetrics is a strict line parser for the subset of the
// OpenMetrics text format the obs package emits.  It enforces the
// format contract — HELP/TYPE before samples, counter samples under
// _total, histogram samples only as _bucket/_count/_sum with
// cumulative monotone buckets ending at le="+Inf" and _count equal to
// the +Inf bucket, a terminal # EOF — and returns every sample as
// name+labels → value for monotonicity comparison across scrapes.
func parseOpenMetrics(t *testing.T, text string) map[string]float64 {
	t.Helper()
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatalf("exposition does not end with the EOF marker")
	}
	samples := make(map[string]float64)
	families := make(map[string]*omFamily)
	cur := "" // family of the current HELP/TYPE/sample block

	// Histogram state per (family, labels-minus-le) series, keyed in
	// order of appearance.
	type histSeries struct {
		buckets []float64 // in exposition order
		lastLe  string
		count   float64
		hasCnt  bool
	}
	hists := make(map[string]*histSeries)
	var histKeys []string

	lines := strings.Split(text, "\n")
	for li, line := range lines {
		if line == "" {
			if li != len(lines)-1 {
				t.Fatalf("line %d: blank line inside exposition", li+1)
			}
			continue
		}
		if strings.HasPrefix(line, "# ") {
			if line == "# EOF" {
				if li != len(lines)-2 {
					t.Fatalf("line %d: # EOF is not the final line", li+1)
				}
				continue
			}
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 3 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Fatalf("line %d: unrecognized comment %q", li+1, line)
			}
			name := parts[2]
			switch parts[1] {
			case "HELP":
				if families[name] != nil {
					t.Fatalf("line %d: duplicate HELP for %s", li+1, name)
				}
				families[name] = &omFamily{hasHelp: true}
				cur = name
			case "TYPE":
				f := families[name]
				if f == nil || !f.hasHelp {
					t.Fatalf("line %d: TYPE for %s without preceding HELP", li+1, name)
				}
				if f.typ != "" {
					t.Fatalf("line %d: duplicate TYPE for %s", li+1, name)
				}
				if len(parts) != 4 {
					t.Fatalf("line %d: malformed TYPE %q", li+1, line)
				}
				f.typ = parts[3]
				cur = name
			}
			continue
		}

		// A sample line: name[{labels}] value.
		var name, labels, valStr string
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.IndexByte(line, '}')
			if j < i {
				t.Fatalf("line %d: malformed labels in %q", li+1, line)
			}
			name, labels = line[:i], line[i:j+1]
			valStr = strings.TrimSpace(line[j+1:])
		} else {
			fields := strings.Fields(line)
			if len(fields) != 2 {
				t.Fatalf("line %d: sample not `name value`: %q", li+1, line)
			}
			name, valStr = fields[0], fields[1]
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad sample value %q: %v", li+1, valStr, err)
		}

		fam := families[cur]
		if cur == "" || fam == nil || fam.typ == "" {
			t.Fatalf("line %d: sample %q before any TYPE declaration", li+1, name)
		}
		switch fam.typ {
		case "counter":
			if name != cur+"_total" {
				t.Fatalf("line %d: counter sample %q lacks the _total suffix for family %s", li+1, name, cur)
			}
			if val < 0 {
				t.Fatalf("line %d: negative counter %q", li+1, name)
			}
		case "gauge":
			if name != cur {
				t.Fatalf("line %d: gauge sample %q does not match family %s", li+1, name, cur)
			}
		case "histogram":
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_count"), "_sum")
			if base != cur {
				t.Fatalf("line %d: histogram sample %q outside family %s", li+1, name, cur)
			}
			le, rest := extractLe(labels)
			key := cur + rest
			h := hists[key]
			if h == nil {
				h = &histSeries{}
				hists[key] = h
				histKeys = append(histKeys, key)
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if le == "" {
					t.Fatalf("line %d: _bucket sample without le label: %q", li+1, lines[li])
				}
				h.buckets = append(h.buckets, val)
				h.lastLe = le
			case strings.HasSuffix(name, "_count"):
				if le != "" {
					t.Fatalf("line %d: le label on non-bucket sample %q", li+1, name)
				}
				h.count, h.hasCnt = val, true
			case strings.HasSuffix(name, "_sum"):
				if le != "" {
					t.Fatalf("line %d: le label on non-bucket sample %q", li+1, name)
				}
			default:
				t.Fatalf("line %d: histogram sample %q is not _bucket/_count/_sum", li+1, name)
			}
		default:
			t.Fatalf("family %s has unsupported type %q", cur, fam.typ)
		}
		samples[name+labels] = val
	}

	sort.Strings(histKeys)
	for _, key := range histKeys {
		h := hists[key]
		if h.lastLe != "+Inf" {
			t.Fatalf("histogram series %s: final bucket le=%q, want +Inf", key, h.lastLe)
		}
		for i := 1; i < len(h.buckets); i++ {
			if h.buckets[i] < h.buckets[i-1] {
				t.Fatalf("histogram series %s: bucket %d (%v) below predecessor (%v): not cumulative",
					key, i, h.buckets[i], h.buckets[i-1])
			}
		}
		if !h.hasCnt {
			t.Fatalf("histogram series %s: missing _count", key)
		}
		if h.count != h.buckets[len(h.buckets)-1] {
			t.Fatalf("histogram series %s: _count %v != +Inf bucket %v", key, h.count, h.buckets[len(h.buckets)-1])
		}
	}
	return samples
}

// extractLe splits the le pair out of a rendered label set, returning
// the le value and the label set without it.
func extractLe(labels string) (le, rest string) {
	if labels == "" {
		return "", ""
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var kept []string
	for _, pair := range strings.Split(inner, ",") {
		if v, ok := strings.CutPrefix(pair, `le="`); ok {
			le = strings.TrimSuffix(v, `"`)
			continue
		}
		kept = append(kept, pair)
	}
	if len(kept) == 0 {
		return le, ""
	}
	return le, "{" + strings.Join(kept, ",") + "}"
}

// scrape fetches and strictly parses /metrics.
func scrape(t *testing.T, cl *http.Client, base string) map[string]float64 {
	t.Helper()
	resp, err := cl.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("/metrics content type %q, want %q", ct, obs.ContentType)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseOpenMetrics(t, string(data))
}

// sumSamples totals every sample whose series name starts with prefix.
func sumSamples(samples map[string]float64, prefix string) float64 {
	var sum float64
	for k, v := range samples {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// TestMetricsExposition drives a mixed workload — compiles, weight
// updates, memo hits, verified and plain runs, both algorithms — and
// holds /metrics to the format contract, to agreement with /v1/stats,
// and to counter monotonicity across scrapes.
func TestMetricsExposition(t *testing.T) {
	srv := New(Config{CacheSize: 2, MaxConcurrent: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := ts.Client()

	runReqs := 0
	vcPost := func(query, body string) {
		t.Helper()
		if code, data := post(t, cl, ts.URL+"/v1/vertexcover"+query, body); code != http.StatusOK {
			t.Fatalf("vertexcover%s: %d %s", query, code, data)
		}
		runReqs++
	}

	bodyA, _ := gridText(t, 4, 4, nil)
	bodyAw, _ := gridText(t, 4, 4, testWeights(16, 7))
	vcPost("?verify=true", bodyA)   // compile
	vcPost("", bodyAw)              // hit + weight update
	vcPost("", bodyAw)              // memo hit
	vcPost("?verify=false", bodyAw) // plain run: a memo key of its own
	var scBuf bytes.Buffer
	if err := anoncover.WriteSetCover(&scBuf, anoncover.RandomSetCover(10, 30, 3, 6, 9, 5)); err != nil {
		t.Fatal(err)
	}
	if code, data := post(t, cl, ts.URL+"/v1/setcover?verify=true", scBuf.String()); code != http.StatusOK {
		t.Fatalf("setcover: %d %s", code, data)
	}
	runReqs++

	first := scrape(t, cl, ts.URL)

	// The request histogram counted every run-endpoint request, split
	// by label; the sum over all label sets must match exactly.
	if got := sumSamples(first, "anoncover_request_seconds_count"); got != float64(runReqs) {
		t.Errorf("request_seconds count %v, want %d", got, runReqs)
	}
	// Scrape-time counter mirrors agree with /v1/stats.
	st := serverStats(t, cl, ts.URL)
	for name, want := range map[string]int64{
		"anoncover_compiles_total":             st.Compiles,
		"anoncover_cache_hits_total":           st.CacheHits,
		"anoncover_weight_updates_total":       st.WeightUpdates,
		"anoncover_memo_hits_total":            st.MemoHits,
		"anoncover_runs_total":                 st.Runs,
		"anoncover_run_errors_total":           st.RunErrors,
		"anoncover_certificate_failures_total": st.CertificateFailures,
	} {
		if got, ok := first[name]; !ok || got != float64(want) {
			t.Errorf("%s = %v (present=%v), want %d", name, got, ok, want)
		}
	}
	if first["anoncover_memo_hits_total"] == 0 {
		t.Error("workload never hit the memo; cache labels not exercised")
	}
	// Phase histograms saw the phases the workload entered.
	for _, phase := range []string{"queue", "compile", "run", "verify"} {
		key := fmt.Sprintf(`anoncover_request_phase_seconds_count{phase=%q}`, phase)
		if first[key] == 0 {
			t.Errorf("phase %s never observed", phase)
		}
	}
	// Build info is present and well-formed.
	if sumSamples(first, "anoncover_build_info") != 1 {
		t.Error("anoncover_build_info sample missing or not 1")
	}

	// More traffic, then re-scrape: every counter-ish sample of the
	// first scrape must still exist and must not have moved backwards.
	vcPost("?verify=true", bodyA)
	vcPost("", bodyAw)
	second := scrape(t, cl, ts.URL)
	for k, v1 := range first {
		if !strings.Contains(k, "_total") && !strings.Contains(k, "_bucket") &&
			!strings.Contains(k, "_count") && !strings.Contains(k, "_sum") {
			continue // gauges may move either way
		}
		v2, ok := second[k]
		if !ok {
			t.Errorf("series %s disappeared between scrapes", k)
			continue
		}
		if v2 < v1 {
			t.Errorf("series %s went backwards: %v -> %v", k, v1, v2)
		}
	}
	if got := sumSamples(second, "anoncover_request_seconds_count"); got != float64(runReqs) {
		t.Errorf("request_seconds count after second burst %v, want %d", got, runReqs)
	}
}

// TestMetricsSoakMonotone layers the format contract over the cache
// soak's churn: after concurrent compiles, evictions, weight updates
// and memo traffic, the exposition still parses strictly and agrees
// with the counters endpoint.
func TestMetricsSoakMonotone(t *testing.T) {
	srv := New(Config{CacheSize: 2, MaxConcurrent: 4, QueueDepth: 64})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := ts.Client()

	before := scrape(t, cl, ts.URL)
	bodies := make([]string, 3)
	bodies[0], _ = gridText(t, 4, 5, testWeights(20, 1))
	bodies[1], _ = gridText(t, 5, 5, testWeights(25, 2))
	bodies[2], _ = gridText(t, 3, 7, testWeights(21, 3))
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 6; i++ {
				post(t, cl, ts.URL+"/v1/vertexcover?verify=true", bodies[(w+i)%3])
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	after := scrape(t, cl, ts.URL)
	if sumSamples(after, "anoncover_request_seconds_count") != 24 {
		t.Errorf("request histogram count %v, want 24",
			sumSamples(after, "anoncover_request_seconds_count"))
	}
	if after["anoncover_evictions_total"] == 0 {
		t.Error("soak never evicted: churn not exercised")
	}
	for k, v1 := range before {
		if strings.Contains(k, "_total") {
			if after[k] < v1 {
				t.Errorf("counter %s went backwards: %v -> %v", k, v1, after[k])
			}
		}
	}
}
