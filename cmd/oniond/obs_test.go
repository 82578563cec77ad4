package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestQueryTraceParam checks the wire contract for tracing: trace=1 (or
// the JSON field) returns the span tree in the response, and its absence
// keeps the response trace-free.
func TestQueryTraceParam(t *testing.T) {
	ts, _ := fig2Server(t)

	var plain queryResponse
	if code := post(t, ts.URL+"/query", queryRequest{Articulation: fixtures.ArtName, Query: smokeQuery}, &plain); code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if plain.Trace != nil {
		t.Fatalf("untraced response carries a trace")
	}

	var traced queryResponse
	if code := post(t, ts.URL+"/query?trace=1", queryRequest{Articulation: fixtures.ArtName, Query: smokeQuery}, &traced); code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if traced.Trace == nil || traced.Trace.Name != "request" {
		t.Fatalf("trace=1 response trace = %+v, want request root", traced.Trace)
	}
	if traced.Trace.DurNs <= 0 {
		t.Errorf("trace root not ended")
	}
	// The repeat was a cache hit: the span tree says which tier served it.
	if traced.Trace.Find("cache.hit") == nil {
		t.Errorf("hit trace lacks cache.hit span:\n%s", traced.Trace.Tree())
	}
	// The request id minted by the middleware is stamped on the root.
	found := false
	for _, a := range traced.Trace.Attrs {
		if a.Key == "request_id" && a.Val != "" {
			found = true
		}
	}
	if !found {
		t.Errorf("trace root lacks request_id attr: %+v", traced.Trace.Attrs)
	}

	// The JSON body field works too.
	var traced2 queryResponse
	post(t, ts.URL+"/query", queryRequest{Articulation: fixtures.ArtName, Query: smokeQuery, Trace: true}, &traced2)
	if traced2.Trace == nil {
		t.Fatalf("trace request field ignored")
	}
}

// TestMetricsEndpoint scrapes /metrics after a fixed script — one miss,
// one hit, one /mutate — and validates the exposition with the in-tree
// validator. /stats and /metrics must be two views of one record: every
// /stats serve counter equals its /metrics series, whatever other
// Services the test process has run.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := fig2Server(t)
	q := queryRequest{Articulation: fixtures.ArtName, Query: smokeQuery}
	for _, want := range []string{"miss", "hit"} {
		var r queryResponse
		if code := post(t, ts.URL+"/query", q, &r); code != http.StatusOK || r.Outcome != want {
			t.Fatalf("query: HTTP %d outcome %q, want %s", code, r.Outcome, want)
		}
	}
	var mut mutateResponse
	if code := post(t, ts.URL+"/mutate", mutateRequest{Source: "carrier", Facts: []factJSON{
		{Subject: "NewCar", Predicate: "InstanceOf", Object: valueJSON{Kind: "term", Value: json.RawMessage(`"PassengerCar"`)}},
	}}, &mut); code != http.StatusOK || mut.Added != 1 {
		t.Fatalf("mutate: HTTP %d, %+v", code, mut)
	}

	text := get(t, ts.URL+"/metrics")
	if err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, text)
	}
	for _, want := range []string{
		"# TYPE onion_serve_query_seconds histogram",
		"# TYPE onion_serve_cache_events_total counter",
		"# TYPE onion_query_executions_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing family %q", want)
		}
	}
	if !seriesPositive(text, "onion_serve_query_seconds_count") {
		t.Errorf("onion_serve_query_seconds counted no queries:\n%s", text)
	}

	var stats struct {
		Serve map[string]float64 `json:"serve"`
	}
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/stats")), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Serve["cache_misses"] != 1 || stats.Serve["cache_hits"] != 1 || stats.Serve["mutations"] != 1 {
		t.Fatalf("/stats serve counters = %v, want the script's miss, hit and mutation", stats.Serve)
	}
	m := samples(text)
	event := func(e string) float64 { return m[`onion_serve_cache_events_total{event="`+e+`"}`] }
	rung := func(r string) float64 { return m[`onion_serve_admission_grants_total{rung="`+r+`"}`] }
	fromMetrics := map[string]float64{
		"cache_hits":      event("hit"),
		"cache_misses":    event("miss"),
		"coalesced":       event("coalesced"),
		"negative_hits":   event("negative_hit"),
		"evictions":       event("eviction"),
		"disk_hits":       event("disk_hit"),
		"disk_demotions":  event("demotion"),
		"mutations":       m["onion_serve_mutations_total"],
		"spilled_queries": m["onion_serve_spilled_queries_total"],
		"admitted":        rung("full") + rung("degraded") + rung("min"),
		"degraded_grants": rung("degraded") + rung("min"),
		"queued":          m["onion_serve_queue_wait_seconds_count"],
		"queue_wait_ns":   math.Round(m["onion_serve_queue_wait_seconds_sum"] * 1e9),
		"shed":            m["onion_serve_shed_total"],
		"disk_faults":     m["onion_serve_disk_faults_total"],
		"breaker_trips":   m["onion_serve_breaker_trips_total"],
	}
	if len(stats.Serve) != len(fromMetrics) {
		t.Errorf("/stats has %d serve counters, the test maps %d: %v", len(stats.Serve), len(fromMetrics), stats.Serve)
	}
	for key, v := range stats.Serve {
		if want, ok := fromMetrics[key]; !ok || v != want {
			t.Errorf("/stats %s = %v, /metrics says %v (mapped %v)", key, v, want, ok)
		}
	}
}

// get returns the body of a GET that must answer 200.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d err %v", url, resp.StatusCode, err)
	}
	return string(body)
}

// samples maps each sample line of an exposition, series name and label
// block as written, to its value.
func samples(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[line[:sp]] = v
		}
	}
	return out
}

// lockedBuffer is an io.Writer safe to read while the server logs.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowQueryLogTrace checks the span tree of the slow-query line,
// whose request root handleQuery makes: an answered query's root carries
// the articulation, query and outcome attributes Answer sets, then the
// request id; a query that fails to parse still logs a finished request
// root carrying the articulation and the request id.
func TestSlowQueryLogTrace(t *testing.T) {
	sys := core.NewSystem()
	if err := loadFig2(sys); err != nil {
		t.Fatal(err)
	}
	h := newServer(serve.New(sys, serve.Options{}))
	h.slowQuery = time.Nanosecond
	ts := httptest.NewServer(h.routes())
	t.Cleanup(ts.Close)
	var logs lockedBuffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)

	post(t, ts.URL+"/query", queryRequest{Articulation: fixtures.ArtName, Query: smokeQuery}, nil)
	post(t, ts.URL+"/query", queryRequest{Articulation: fixtures.ArtName, Query: "SELECT bogus"}, nil)
	var lines []slowQueryLine
	for _, l := range strings.Split(logs.String(), "\n") {
		if _, js, ok := strings.Cut(l, "slow-query "); ok {
			var e slowQueryLine
			if err := json.Unmarshal([]byte(js), &e); err != nil {
				t.Fatalf("slow-query line %q: %v", l, err)
			}
			lines = append(lines, e)
		}
	}
	if len(lines) != 2 {
		t.Fatalf("logged %d slow-query lines, want 2:\n%s", len(lines), logs.String())
	}
	for i, want := range [][]string{
		{"articulation", "query", "outcome", "request_id"},
		{"articulation", "request_id"},
	} {
		root := lines[i].Trace
		if root == nil || root.Name != "request" || root.DurNs <= 0 {
			t.Fatalf("line %d: trace root = %+v, want an ended request span", i, root)
		}
		var keys []string
		for _, a := range root.Attrs {
			keys = append(keys, a.Key)
		}
		if !slices.Equal(keys, want) {
			t.Errorf("line %d: root attrs %v, want keys %v", i, root.Attrs, want)
		}
		if lines[i].Outcome != "miss" {
			t.Errorf("line %d: outcome %q, want miss", i, lines[i].Outcome)
		}
	}
}
