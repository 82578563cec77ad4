package bench

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/query"
)

// runQuery executes q on eng under opts with no deadline.
func runQuery(eng *query.Engine, q query.Query, opts query.Options) (*query.Result, error) {
	return eng.Execute(context.Background(), q, opts)
}

// TestPlannedExecutionMatchesSequential is the determinism regression:
// across every query world, the planned executor (the batch pipeline)
// must return byte-identical Result rows and row ordering to the
// sequential reference — at one scan worker and on a pool, with pinned
// partitions, under a tiny budget, and on a plan-cache hit — for
// single-step plans and join chains alike.
func TestPlannedExecutionMatchesSequential(t *testing.T) {
	type world struct {
		name string
		eng  *query.Engine
		qs   []query.Query
	}
	var worlds []world

	// The reformulation world, queried in articulation-level and
	// source-qualified vocabulary.
	for _, n := range []int{50, 150} {
		eng, artTerm, srcTerm := buildQueryWorld(n)
		worlds = append(worlds, world{
			name: fmt.Sprintf("query/%d", n),
			eng:  eng,
			qs: []query.Query{
				query.MustParse("SELECT ?x ?p WHERE ?x InstanceOf " + artTerm + " . ?x Price ?p"),
				query.MustParse("SELECT ?x ?p WHERE ?x InstanceOf " + srcTerm + " . ?x Price ?p"),
			},
		})
	}

	// The multi-source fan-out world (scaled down for test speed).
	feng, fq := buildFanoutWorld(4, 300)
	worlds = append(worlds, world{name: "fanout/4", eng: feng, qs: []query.Query{fq}})

	// The join-heavy world (scaled down): the frontier stays at full
	// width through every step, stressing the partitioned joins.
	jeng, jq := buildJoinWorld(2, 250, 4)
	worlds = append(worlds, world{name: "join/4", eng: jeng, qs: []query.Query{jq}})

	// The deep-chain world (scaled down): six keyed join steps with a
	// widening frontier, exercising cross-step streaming end to end.
	ceng, cq := buildChainWorld(4, 40, 6, 2)
	worlds = append(worlds, world{name: "chain/6", eng: ceng, qs: []query.Query{cq}})

	// The Fig. 2 paper world, including a filter query and a
	// constant-subject query.
	res, carrier, factory := fixtures.GenerateTransport()
	peng, err := query.NewEngine(res.Art, map[string]*query.Source{
		"carrier": {Ont: carrier, KB: fixtures.CarrierKB()},
		"factory": {Ont: factory, KB: fixtures.FactoryKB()},
	})
	if err != nil {
		t.Fatal(err)
	}
	worlds = append(worlds, world{name: "Fig2", eng: peng, qs: []query.Query{
		query.MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p"),
		query.MustParse("SELECT ?x WHERE ?x InstanceOf Vehicle"),
		query.MustParse("SELECT ?p WHERE carrier.MyCar Price ?p"),
		query.MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p . FILTER ?p > 3000"),
		query.MustParse("SELECT ?x ?r ?y WHERE ?x ?r ?y"),
	}})

	modes := []struct {
		name string
		opts query.Options
	}{
		{"one-worker", query.Options{Workers: 1}},
		{"one-worker-tinybudget", query.Options{Workers: 1, MemoryLimit: 1 << 14}},
		{"pipelined-8", query.Options{Workers: 8}},        // cross-step pipeline on keyed chains
		{"pipelined-8-cached", query.Options{Workers: 8}}, // second run hits the plan cache
		{"pipelined-parts-3", query.Options{Workers: 8, Partitions: 3}},
		// The tiny-budget leg: a 16KB cap forces every pipeline join
		// partition into grace-hash spilling, yet rows must stay
		// byte-identical.
		{"pipelined-8-tinybudget", query.Options{Workers: 8, MemoryLimit: 1 << 14}},
	}
	for _, w := range worlds {
		for qi, q := range w.qs {
			want, err := runQuery(w.eng, q, query.Options{Sequential: true})
			if err != nil {
				t.Fatalf("%s q%d sequential: %v", w.name, qi, err)
			}
			for _, m := range modes {
				got, err := runQuery(w.eng, q, m.opts)
				if err != nil {
					t.Fatalf("%s q%d %s: %v", w.name, qi, m.name, err)
				}
				if !want.EqualRows(got) {
					t.Errorf("%s q%d %s diverged: sequential %d rows, planned %d rows",
						w.name, qi, m.name, len(want.Rows), len(got.Rows))
				}
			}
		}
	}

	// The tiny budget must actually have exercised the spill path on the
	// deep-chain world (the other worlds may or may not cross their
	// per-partition reservations; the chain world's frontier always
	// does).
	spilled, err := runQuery(ceng, cq, query.Options{Workers: 8, MemoryLimit: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if spilled.Stats.SpilledPartitions == 0 || spilled.Stats.SpillRuns == 0 {
		t.Errorf("tiny-budget chain run did not spill: %+v", spilled.Stats)
	}

	// The planner must move the fan-out world's selective Status triple
	// ahead of the textual order.
	planned, err := runQuery(feng, fq, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if planned.Stats.ReorderedTriples == 0 {
		t.Errorf("planner did not reorder the fan-out world's joins: %+v", planned.Stats)
	}
}

// TestJoinWorldMatchesSequential checks the join world at full width
// (1500 instances per source, 3 and 5 conjuncts): the planned join
// executors return rows identical to the sequential reference, at one
// scan worker and on a pool.
func TestJoinWorldMatchesSequential(t *testing.T) {
	for _, nt := range []int{3, 5} {
		eng, q := buildJoinWorld(2, 1500, nt)
		want, err := runQuery(eng, q, query.Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("join world at %d triples produced no rows", nt)
		}
		for _, opts := range []query.Options{{Workers: 1}, {Workers: chainWorkers}} {
			got, err := runQuery(eng, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !want.EqualRows(got) {
				t.Errorf("%d triples, %+v: diverged from sequential (%d vs %d rows)", nt, opts, len(got.Rows), len(want.Rows))
			}
		}
	}
}

// TestChainWorldStreamsEveryStep checks the deep-chain world at full
// size (32 sources, 3 and 5 conjuncts, 8 workers and 8 pinned
// partitions): rows identical to the sequential reference, and the
// chain streams across every join step.
func TestChainWorldStreamsEveryStep(t *testing.T) {
	for _, nt := range []int{3, 5} {
		eng, q := buildChainWorld(chainSources, chainInstances, nt, chainDup)
		want, err := runQuery(eng, q, query.Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := runQuery(eng, q, query.Options{Workers: chainWorkers, Partitions: chainWorkers})
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) == 0 || !want.EqualRows(got) {
			t.Errorf("%d triples: pipeline diverged from sequential (%d vs %d rows)", nt, len(got.Rows), len(want.Rows))
		}
		if len(got.Stats.StepPartitions) != nt {
			t.Errorf("%d triples: chain did not stream across every step: %+v", nt, got.Stats)
		}
	}
}

// boundedCap is the execution budget of the bounded-memory leg: far
// below the depth-5 chain world's unbounded accounted peak, so the
// grace-hash spill path carries the join, yet large enough that only
// the oversized partitions degrade.
const boundedCap = int64(8 << 20)

// TestBoundedMemoryPeakUnderCap runs the depth-5 chain world once
// unbounded and once under boundedCap, with planner-derived partitions:
// the capped run must spill, keep its accounted peak under the cap, and
// return rows identical to the unbounded pipeline and the sequential
// reference, while the unbounded peak shows the cap really binds.
func TestBoundedMemoryPeakUnderCap(t *testing.T) {
	eng, q := buildChainWorld(chainSources, chainInstances, 5, chainDup)
	run := func(opts query.Options) *query.Result {
		t.Helper()
		res, err := runQuery(eng, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(query.Options{Sequential: true})
	unbounded := run(query.Options{Workers: chainWorkers})
	capped := run(query.Options{Workers: chainWorkers, MemoryLimit: boundedCap})

	if len(capped.Rows) == 0 {
		t.Fatal("bounded run produced no rows")
	}
	if !capped.EqualRows(unbounded) || !capped.EqualRows(seq) {
		t.Errorf("capped rows diverged from unbounded/sequential (%d vs %d/%d rows)",
			len(capped.Rows), len(unbounded.Rows), len(seq.Rows))
	}
	st := capped.Stats
	t.Logf("accounted peak %d of cap %d (unbounded %d), %d spilled partitions", st.BytesReserved, boundedCap, unbounded.Stats.BytesReserved, st.SpilledPartitions)
	if st.SpilledPartitions == 0 {
		t.Errorf("cap %d did not force spilling (unbounded peak %d)", boundedCap, unbounded.Stats.BytesReserved)
	}
	if st.BytesReserved > boundedCap {
		t.Errorf("accounted peak %d exceeds cap %d", st.BytesReserved, boundedCap)
	}
	if unbounded.Stats.BytesReserved <= boundedCap {
		t.Errorf("world too small: unbounded peak %d under cap %d", unbounded.Stats.BytesReserved, boundedCap)
	}
	if len(st.StepPartitions) < 2 {
		t.Errorf("capped chain did not pipeline: %+v", st)
	}
}
