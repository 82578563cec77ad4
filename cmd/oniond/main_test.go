package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/kb"
	"repro/internal/query"
	"repro/internal/serve"
)

func fig2Server(t *testing.T) (*httptest.Server, *core.System) {
	t.Helper()
	sys := core.NewSystem()
	if err := loadFig2(sys); err != nil {
		t.Fatal(err)
	}
	svc := serve.New(sys, serve.Options{})
	ts := httptest.NewServer(newServer(svc).routes())
	t.Cleanup(ts.Close)
	return ts, sys
}

func post(t *testing.T, url string, body any, into any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestQueryEndpointMatchesLibrary is the smoke contract as a unit test:
// the daemon's /query rows must be the library's rows, and a repeat is a
// cache hit.
func TestQueryEndpointMatchesLibrary(t *testing.T) {
	ts, sys := fig2Server(t)
	want, err := sys.Query(fixtures.ArtName, smokeQuery)
	if err != nil {
		t.Fatal(err)
	}
	var got queryResponse
	if code := post(t, ts.URL+"/query", queryRequest{Articulation: fixtures.ArtName, Query: smokeQuery}, &got); code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if !reflect.DeepEqual(got.Vars, want.Vars) {
		t.Fatalf("daemon vars %v, library %v", got.Vars, want.Vars)
	}
	if err := rowsMatch(got.Rows, want.Rows); err != nil {
		t.Fatalf("daemon rows diverge from library: %v", err)
	}
	if got.Outcome != "miss" {
		t.Fatalf("first query outcome = %q", got.Outcome)
	}
	var again queryResponse
	post(t, ts.URL+"/query", queryRequest{Articulation: fixtures.ArtName, Query: smokeQuery}, &again)
	if again.Outcome != "hit" || !reflect.DeepEqual(again.Rows, got.Rows) {
		t.Fatalf("repeat outcome = %q (rows equal: %v)", again.Outcome, reflect.DeepEqual(again.Rows, got.Rows))
	}

	// Errors surface as HTTP 400 with a JSON error body.
	var e errorResponse
	if code := post(t, ts.URL+"/query", queryRequest{Articulation: "nope", Query: smokeQuery}, &e); code != http.StatusBadRequest || e.Error == "" {
		t.Fatalf("unknown articulation: HTTP %d, %+v", code, e)
	}
	if code := post(t, ts.URL+"/query", queryRequest{Articulation: fixtures.ArtName, Query: "SELECT"}, &e); code != http.StatusBadRequest {
		t.Fatalf("bad query: HTTP %d", code)
	}
}

// TestMutateThenQuery drives the consistency loop over HTTP: mutate a
// source, and the next query must reflect the new fact (the epoch-keyed
// cache must not serve the pre-mutation answer).
func TestMutateThenQuery(t *testing.T) {
	ts, _ := fig2Server(t)
	q := queryRequest{Articulation: fixtures.ArtName, Query: smokeQuery}

	var before queryResponse
	post(t, ts.URL+"/query", q, &before)

	var mut mutateResponse
	code := post(t, ts.URL+"/mutate", mutateRequest{Source: "carrier", Facts: []factJSON{
		{Subject: "NewCar", Predicate: "InstanceOf", Object: valueJSON{Kind: "term", Value: json.RawMessage(`"PassengerCar"`)}},
		{Subject: "NewCar", Predicate: "Price", Object: valueJSON{Kind: "number", Value: json.RawMessage(`2500`)}},
	}}, &mut)
	if code != http.StatusOK || mut.Added != 2 {
		t.Fatalf("mutate: HTTP %d, %+v", code, mut)
	}

	var after queryResponse
	post(t, ts.URL+"/query", q, &after)
	if after.Outcome != "miss" {
		t.Fatalf("post-mutation outcome = %q, want miss", after.Outcome)
	}
	if len(after.Rows) != len(before.Rows)+1 {
		t.Fatalf("rows = %d, want %d", len(after.Rows), len(before.Rows)+1)
	}

	// Unknown source and malformed values are 400s.
	var e errorResponse
	if code := post(t, ts.URL+"/mutate", mutateRequest{Source: "nope"}, &e); code != http.StatusBadRequest {
		t.Fatalf("unknown source: HTTP %d", code)
	}
	if code := post(t, ts.URL+"/mutate", mutateRequest{Source: "carrier", Facts: []factJSON{
		{Subject: "X", Predicate: "P", Object: valueJSON{Kind: "wat", Value: json.RawMessage(`1`)}},
	}}, &e); code != http.StatusBadRequest {
		t.Fatalf("bad value kind: HTTP %d", code)
	}
}

// TestArticulateEndpoint generates a second articulation over the
// running daemon and queries through it.
func TestArticulateEndpoint(t *testing.T) {
	ts, _ := fig2Server(t)
	var resp articulateResponse
	code := post(t, ts.URL+"/articulate", articulateRequest{
		Name:  "transport2",
		Left:  "carrier",
		Right: "factory",
		Rules: "carrier.Cars => factory.Vehicle",
	}, &resp)
	if code != http.StatusOK || resp.Bridges == 0 || resp.Terms == 0 {
		t.Fatalf("articulate: HTTP %d, %+v", code, resp)
	}
	var got queryResponse
	if code := post(t, ts.URL+"/query", queryRequest{
		Articulation: "transport2",
		Query:        "SELECT ?x WHERE ?x InstanceOf Vehicle",
	}, &got); code != http.StatusOK || len(got.Rows) == 0 {
		t.Fatalf("query over new articulation: HTTP %d, rows %d", code, len(got.Rows))
	}
	// Duplicate name collides.
	var e errorResponse
	if code := post(t, ts.URL+"/articulate", articulateRequest{
		Name: "transport2", Left: "carrier", Right: "factory", Rules: "carrier.Cars => factory.Vehicle",
	}, &e); code != http.StatusBadRequest {
		t.Fatalf("duplicate articulation: HTTP %d", code)
	}
}

// TestArticulateReportsMissingFuncs: the Fig. 2 rules name four
// conversion functions the daemon has not registered; /articulate
// generates their bridges leniently and names every one of them. The
// rules name their articulation "transport", so the built-in one is
// dropped first.
func TestArticulateReportsMissingFuncs(t *testing.T) {
	ts, sys := fig2Server(t)
	sys.Drop(fixtures.ArtName)
	var resp articulateResponse
	code := post(t, ts.URL+"/articulate", articulateRequest{
		Name: fixtures.ArtName, Left: "carrier", Right: "factory",
		Rules: fixtures.TransportRuleText, Lenient: true,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("articulate: HTTP %d, %+v", code, resp)
	}
	want := []string{"PSToEuroFn", "EuroToPSFn", "DGToEuroFn", "EuroToDGFn"}
	if !reflect.DeepEqual(resp.MissingFuncs, want) {
		t.Fatalf("missing_funcs = %v, want %v", resp.MissingFuncs, want)
	}
}

// TestUnrelatedArticulateKeepsCache: a new articulation reads carrier and
// factory but changes neither, so the served transport articulation keeps
// its engine and epoch key, and its cached answer is still a hit.
func TestUnrelatedArticulateKeepsCache(t *testing.T) {
	ts, _ := fig2Server(t)
	q := queryRequest{Articulation: fixtures.ArtName, Query: smokeQuery}
	var first queryResponse
	if code := post(t, ts.URL+"/query", q, &first); code != http.StatusOK || first.Outcome != "miss" {
		t.Fatalf("first query: HTTP %d, outcome %q", code, first.Outcome)
	}
	if code := post(t, ts.URL+"/articulate", articulateRequest{
		Name: "transport-again", Left: "carrier", Right: "factory",
		Rules: "carrier.Cars => factory.Vehicle",
	}, nil); code != http.StatusOK {
		t.Fatalf("articulate: HTTP %d", code)
	}
	var again queryResponse
	post(t, ts.URL+"/query", q, &again)
	if again.Outcome != "hit" || !reflect.DeepEqual(again.Rows, first.Rows) {
		t.Fatalf("after an unrelated /articulate: outcome %q (rows equal: %v), want a hit",
			again.Outcome, reflect.DeepEqual(again.Rows, first.Rows))
	}
}

// TestStatsEndpoint checks the counters and registry listing move with
// traffic.
func TestStatsEndpoint(t *testing.T) {
	ts, _ := fig2Server(t)
	q := queryRequest{Articulation: fixtures.ArtName, Query: smokeQuery}
	post(t, ts.URL+"/query", q, nil)
	post(t, ts.URL+"/query", q, nil)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Serve.CacheHits != 1 || st.Serve.CacheMisses != 1 {
		t.Fatalf("serve counters = %+v", st.Serve)
	}
	if len(st.Ontologies) != 3 || len(st.Articulations) != 1 {
		t.Fatalf("registry listing = %+v", st)
	}
	if st.Epochs[fixtures.ArtName] == "" {
		t.Fatalf("missing epoch key for %s: %+v", fixtures.ArtName, st.Epochs)
	}
}

// TestValueCodecRoundTrip pins the wire encoding of every value kind:
// appendValue writes what decodeValue reads back, and a non-finite
// number goes out as a valid JSON null.
func TestValueCodecRoundTrip(t *testing.T) {
	for _, v := range []struct {
		kind  string
		value string
	}{
		{"term", `"carrier.MyCar"`},
		{"string", `"Alice\u0000x"`}, // embedded NUL survives the wire
		{"number", `3000.5`},
	} {
		dec, err := decodeValue(valueJSON{Kind: v.kind, Value: json.RawMessage(v.value)})
		if err != nil {
			t.Fatalf("%s: %v", v.kind, err)
		}
		var enc valueJSON
		if err := json.Unmarshal(appendValue(nil, dec), &enc); err != nil {
			t.Fatalf("%s: %v", v.kind, err)
		}
		if enc.Kind != v.kind {
			t.Fatalf("round-trip kind %q -> %q", v.kind, enc.Kind)
		}
		dec2, err := decodeValue(enc)
		if err != nil || !dec.Equal(dec2) {
			t.Fatalf("%s: round-trip mismatch (%v)", v.kind, err)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got := appendValue(nil, kb.Number(f))
		if !json.Valid(got) || string(got) != `{"kind":"number","value":null}` {
			t.Fatalf("%v encodes as %s", f, got)
		}
	}
}

// TestMutateRejectsNullValue: a null value is refused for every kind
// with a 400 naming the fact, instead of silently storing 0 or "".
func TestMutateRejectsNullValue(t *testing.T) {
	ts, _ := fig2Server(t)
	q := queryRequest{Articulation: fixtures.ArtName, Query: smokeQuery}
	var before queryResponse
	post(t, ts.URL+"/query", q, &before)
	for _, kind := range []string{"number", "string", "term"} {
		var e errorResponse
		code := post(t, ts.URL+"/mutate", mutateRequest{Source: "carrier", Facts: []factJSON{
			{Subject: "NullCar", Predicate: "InstanceOf", Object: valueJSON{Kind: "term", Value: json.RawMessage(`"PassengerCar"`)}},
			{Subject: "NullCar", Predicate: "Price", Object: valueJSON{Kind: kind, Value: json.RawMessage(`null`)}},
		}}, &e)
		if code != http.StatusBadRequest || !strings.Contains(e.Error, "fact 1") {
			t.Fatalf("%s null: HTTP %d, %+v", kind, code, e)
		}
	}
	// The refused requests stored nothing, not even their valid fact.
	var after queryResponse
	post(t, ts.URL+"/query", q, &after)
	if after.Outcome != "hit" || len(after.Rows) != len(before.Rows) {
		t.Fatalf("after refused mutations: outcome %q, %d rows, want hit with %d", after.Outcome, len(after.Rows), len(before.Rows))
	}
}

// TestRequestIDFormat: ids are the start time in hex, a dash and the
// sequence number zero-padded to six digits — what "%x-%06d" gives.
func TestRequestIDFormat(t *testing.T) {
	s := newServer(nil)
	for _, seq := range []uint64{1, 42, 999999, 1000000, 123456789} {
		want := fmt.Sprintf("%x-%06d", s.started.UnixNano(), seq)
		if got := s.requestID(seq); got != want {
			t.Errorf("requestID(%d) = %q, want %q", seq, got, want)
		}
	}
}

// TestQueryMemoryLimitThreads checks the per-request memory cap: a
// budgeted /query completes via grace-hash spilling with the same rows
// as an unbounded run, and /stats exposes spilled_queries.
func TestQueryMemoryLimitThreads(t *testing.T) {
	sys := core.NewSystem()
	if err := loadFig2(sys); err != nil {
		t.Fatal(err)
	}
	svc := serve.New(sys, serve.Options{Exec: query.Options{Workers: 4}})
	ts := httptest.NewServer(newServer(svc).routes())
	t.Cleanup(ts.Close)

	var free queryResponse
	if code := post(t, ts.URL+"/query", queryRequest{Articulation: fixtures.ArtName, Query: smokeQuery}, &free); code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	// The triples are reordered so the text misses the cache (mere
	// respelling would hit — keys are normalized) and actually executes;
	// the 1-byte budget guarantees the spill path even on the tiny
	// Fig. 2 world, so the plumbing is asserted unconditionally.
	respelled := "SELECT ?x ?p WHERE ?x Price ?p . ?x InstanceOf Vehicle"
	var capped queryResponse
	if code := post(t, ts.URL+"/query", queryRequest{
		Articulation: fixtures.ArtName, Query: respelled, MemoryLimitBytes: 1,
	}, &capped); code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if !reflect.DeepEqual(capped.Rows, free.Rows) {
		t.Fatalf("budgeted rows diverge from unbounded rows")
	}
	if capped.Stats.SpilledPartitions == 0 {
		t.Fatalf("1-byte request budget did not spill: %+v", capped.Stats)
	}
	var st statsResponse
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Serve.SpilledQueries == 0 {
		t.Fatalf("spilled_queries not surfaced: %+v", st.Serve)
	}
}
