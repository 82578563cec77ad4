package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"repro/internal/fixtures"
	"repro/internal/query"
)

// BENCHMARK.json repeats the metric tables and the workload list; a
// run is checked against it by name, so the two must not drift.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(doc.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if !name.MatchString(d.name) || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end_to_end %s: bad name or bound %g", d.name, d.bound)
		}
	}
	for i, d := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if !name.MatchString(d.name) {
			t.Errorf("per_layer %s: bad name", d.name)
		}
	}
}

// The oracle cuts an unfiltered answer at the threshold itself; that
// must be what the naive engine path answers for the filtered text.
func TestOracleCutEqualsFilteredSequential(t *testing.T) {
	o, err := newOracle(loadBatches(7, 300))
	if err != nil {
		t.Fatal(err)
	}
	for _, tmpl := range []template{tmplSel, tmplJoin, tmplRoot, tmplWide} {
		threshold, err := o.threshold(tmpl, 40)
		if err != nil {
			t.Fatal(err)
		}
		want, err := o.expect(tmpl, threshold)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 40 {
			t.Errorf("%s: threshold for 40 rows passes %d", tmpl.name, len(want))
		}
		res, err := o.sys.QueryWith(fixtures.ArtName, tmpl.text(threshold), query.Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		reply := queryReply{}
		for _, row := range res.Rows {
			cells := make([]wireValue, len(row))
			for i, v := range row {
				cells[i] = toWire(v)
			}
			reply.Rows = append(reply.Rows, cells)
		}
		if !reply.matches(want) {
			t.Errorf("%s: the engine's filtered answer (%d rows) differs from the oracle's cut (%d rows)", tmpl.name, len(res.Rows), len(want))
		}
	}
}

// A smoke run of every workload, both passes, on a small world: every
// metric BENCHMARK.json names is emitted under its name, nothing fails,
// and no end-to-end metric reads 0.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns oniond ten times")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	dir := t.TempDir()
	bin, err := buildDaemon(ctx, "..", dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: 1, vehicles: 500, window: time.Second, setups: 1, bin: bin, buildDir: dir, outDir: dir}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(ctx, cfg, w, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, the table has %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q", w.name, traced, d.name, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v", w.name, d.name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(dir + "/" + w.name + ".trace.json"); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
				if res.Metrics["client.traced_request_ms"].Value <= 0 {
					t.Errorf("%s: the traced pass recorded no spans", w.name)
				}
			}
		}
	}
}
