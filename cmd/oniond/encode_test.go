package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/serve"
)

// legacyQueryJSON is the reference /query body: every cell marshalled on
// its own into a json.RawMessage, the tree marshalled by encoding/json
// with the two-space indent the daemon used to serve, then compacted,
// plus the encoder's trailing newline. encodeQueryResponse must match it
// byte for byte.
func legacyQueryJSON(t testing.TB, res *query.Result, outcome string, trace *obs.Span) []byte {
	t.Helper()
	rows := make([][]valueJSON, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = make([]valueJSON, len(row))
		for j, v := range row {
			kind, payload := "term", any(v.Str)
			switch v.Kind {
			case kb.KindNumber:
				kind, payload = "number", v.Num
			case kb.KindString:
				kind = "string"
			}
			raw, _ := json.Marshal(payload) // NaN and ±Inf fail: nil, sent as null
			rows[i][j] = valueJSON{Kind: kind, Value: raw}
		}
	}
	var indented bytes.Buffer
	enc := json.NewEncoder(&indented)
	enc.SetIndent("", "  ")
	if err := enc.Encode(queryResponse{Vars: res.Vars, Rows: rows, Outcome: outcome, Stats: res.Stats, Trace: trace}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := json.Compact(&out, indented.Bytes()); err != nil {
		t.Fatal(err)
	}
	out.WriteByte('\n')
	return out.Bytes()
}

func checkEncoding(t testing.TB, name string, res *query.Result, outcome string, trace *obs.Span) {
	t.Helper()
	got, err := encodeQueryResponse(res, outcome, trace)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := legacyQueryJSON(t, res, outcome, trace); !bytes.Equal(got, want) {
		t.Fatalf("%s: body diverges from encoding/json\n got: %s\nwant: %s", name, got, want)
	}
}

// TestQueryResponseMatchesEncodingJSON holds the Fig. 2 world's /query
// bodies — miss, hit, coalesced, budgeted and traced — byte-identical
// to the compacted encoding/json form, both straight from the service
// and as served over HTTP.
func TestQueryResponseMatchesEncodingJSON(t *testing.T) {
	sys := core.NewSystem()
	if err := loadFig2(sys); err != nil {
		t.Fatal(err)
	}
	svc := serve.New(sys, serve.Options{})
	ctx := context.Background()
	for _, c := range []struct {
		name, query string
		lim         serve.Limits
	}{
		{"miss", smokeQuery, serve.Limits{}},
		{"hit", smokeQuery, serve.Limits{}},
		{"budgeted", "SELECT ?x ?p WHERE ?x Price ?p . ?x InstanceOf Vehicle", serve.Limits{MemoryBytes: 1}},
	} {
		res, out, err := svc.Answer(ctx, fixtures.ArtName, query.MustParse(c.query), c.lim, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkEncoding(t, c.name, res, out.String(), nil)
		checkEncoding(t, c.name+"/coalesced", res, serve.OutcomeCoalesced.String(), nil)
	}
	root := obs.NewTrace("request")
	res, out, err := svc.Answer(ctx, fixtures.ArtName, query.MustParse("SELECT ?x WHERE ?x InstanceOf Vehicle"), serve.Limits{}, root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	checkEncoding(t, "traced", res, out.String(), root)

	// Over HTTP: decode each body back into a Result (and span tree) and
	// re-encode it the reference way.
	ts := httptest.NewServer(newServer(svc).routes())
	t.Cleanup(ts.Close)
	for _, c := range []struct {
		name, path string
		req        queryRequest
	}{
		{"http/hit", "/query", queryRequest{Articulation: fixtures.ArtName, Query: smokeQuery}},
		{"http/miss", "/query", queryRequest{Articulation: fixtures.ArtName, Query: "SELECT ?p WHERE ?x Price ?p"}},
		{"http/budgeted", "/query", queryRequest{Articulation: fixtures.ArtName, Query: "SELECT ?x WHERE ?x Price ?p", MemoryLimitBytes: 1}},
		{"http/traced", "/query?trace=1", queryRequest{Articulation: fixtures.ArtName, Query: smokeQuery}},
		{"http/traced-body", "/query", queryRequest{Articulation: fixtures.ArtName, Query: smokeQuery, Trace: true}},
	} {
		raw, _ := json.Marshal(c.req)
		resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d, %v: %s", c.name, resp.StatusCode, err, body)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Fatalf("%s: Content-Length %q for %d bytes", c.name, cl, len(body))
		}
		var got queryResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if traced := strings.Contains(c.name, "traced"); traced != (got.Trace != nil) {
			t.Fatalf("%s: trace present = %v", c.name, got.Trace != nil)
		}
		res := &query.Result{Vars: got.Vars, Stats: got.Stats, Rows: make([][]kb.Value, len(got.Rows))}
		for i, row := range got.Rows {
			res.Rows[i] = make([]kb.Value, len(row))
			for j, cell := range row {
				if res.Rows[i][j], err = decodeValue(cell); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
			}
		}
		if want := legacyQueryJSON(t, res, got.Outcome, got.Trace); !bytes.Equal(body, want) {
			t.Fatalf("%s: served body diverges from encoding/json\n got: %s\nwant: %s", c.name, body, want)
		}
	}
}

// FuzzQueryResponseJSON differentially tests the appender against
// encoding/json: for any (kind, string, float) the body must equal the
// compacted reference, and every finite, valid-UTF-8 cell must decode
// back to an Equal value.
func FuzzQueryResponseJSON(f *testing.F) {
	for _, s := range []string{"", "carrier.MyCar", "\xff\xfe bad \xc3", "nul\x00x", "del\x7f", "<a href='x'>&amp;</a>", "ls\u2028ps\u2029", "tab\t\"q\"\\", "\x1f\u00e9\U0001F600"} {
		f.Add(uint8(0), s, 1.5)
	}
	for _, x := range []float64{math.Copysign(0, -1), 5e-324, 1e-7, 999999999999999999999, 1e21, math.MaxFloat64, 1e-6, 123456789.125} {
		f.Add(uint8(2), "x", x)
	}
	f.Fuzz(func(t *testing.T, kind uint8, s string, x float64) {
		cell := kb.Value{Kind: kb.ValueKind(kind % 3), Str: s, Num: x}
		if cell.Kind != kb.KindNumber {
			cell.Num = 0
		} else {
			cell.Str = ""
		}
		res := &query.Result{
			Vars: []string{"x", s},
			Rows: [][]kb.Value{{cell, kb.Term(s)}, {kb.String(s), kb.Number(x)}, {}},
		}
		checkEncoding(t, "fuzz", res, "miss", nil)

		body, _ := encodeQueryResponse(res, "miss", nil)
		var got queryResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("body is not valid JSON: %v\n%s", err, body)
		}
		finite := !math.IsNaN(x) && !math.IsInf(x, 0)
		for i, row := range res.Rows {
			for j, want := range row {
				v, err := decodeValue(got.Rows[i][j])
				switch {
				case want.Kind == kb.KindNumber && !finite:
					if err == nil {
						t.Fatalf("non-finite %v decoded as %v", x, v)
					}
				case want.Kind != kb.KindNumber && !utf8.ValidString(s):
					// Invalid UTF-8 is sent as U+FFFD, by design lossy.
				case err != nil || !v.Equal(want):
					t.Fatalf("cell [%d][%d] = %v (%v), want %v", i, j, v, err, want)
				}
			}
		}
	})
}

// TestQueryEncodeAllocs pins the encoder's allocation count: a
// 10 000-row result costs the body buffer and the Stats marshal, not an
// allocation per row or cell.
func TestQueryEncodeAllocs(t *testing.T) {
	res := &query.Result{Vars: []string{"x", "p"}, Stats: query.Stats{SourceScans: 2, StepPartitions: []int{0, 4}}}
	for i := 0; i < 10000; i++ {
		res.Rows = append(res.Rows, []kb.Value{kb.Term("carrier.Car" + strconv.Itoa(i)), kb.Number(float64(i) * 1.25)})
	}
	checkEncoding(t, "10k rows", res, "miss", nil)
	// GC pinned off while sampling: a cycle inside a run moves its count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := encodeQueryResponse(res, "miss", nil); err != nil {
			t.Fatal(err)
		}
	})
	limit := 4.0
	if raceEnabled {
		limit = 16 // still far below one per row
	}
	if allocs > limit {
		t.Fatalf("encoding 10 000 rows made %.0f allocations, want <= %.0f", allocs, limit)
	}
}
