package bench

import (
	"testing"

	"repro/internal/query"
)

// TestE12TupleBeatsCompat keeps what is still true of the frozen E12
// experiment on its world (1500 instances per source, 3 and 5 conjuncts):
// the planned join executors return rows identical to the sequential
// reference. The binding-map baseline it used to race was removed in
// PR 24; the ratio is frozen in BENCH_PR2.json.
func TestE12TupleBeatsCompat(t *testing.T) {
	for _, nt := range []int{3, 5} {
		eng, q, _ := buildJoinWorld(2, 1500, nt)
		want, err := eng.ExecuteWith(q, query.Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("E12 world at %d triples produced no rows", nt)
		}
		for _, opts := range []query.Options{{Workers: 1}, {Workers: chainWorkers}} {
			got, err := eng.ExecuteWith(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !want.EqualRows(got) {
				t.Errorf("%d triples, %+v: diverged from sequential (%d vs %d rows)", nt, opts, len(got.Rows), len(want.Rows))
			}
		}
	}
}

// Allocation-regression benchmarks: run with -benchmem (CI's bench smoke
// does) to track per-operation allocations of the planned executors on
// the E11 fan-out and E12 join-heavy worlds.

func benchWorldExec(b *testing.B, eng *query.Engine, q query.Query, opts query.Options) {
	b.Helper()
	if _, err := eng.ExecuteWith(q, opts); err != nil { // warm plan + indexes
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ExecuteWith(q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11WorldTupleJoins(b *testing.B) {
	eng, q, _ := buildFanoutWorld(8, 500)
	benchWorldExec(b, eng, q, query.Options{})
}

func BenchmarkE12WorldTupleJoins(b *testing.B) {
	eng, q, _ := buildJoinWorld(2, 500, 4)
	benchWorldExec(b, eng, q, query.Options{})
}

// BenchmarkE19WorldBatch tracks the columnar batch pipeline on the
// scaled-up join world (E18's) — for -benchmem tracking and profiling.
func BenchmarkE19WorldBatch(b *testing.B) {
	eng, q, _ := buildJoinWorld(2, e18Instances, 4)
	benchWorldExec(b, eng, q, query.Options{Workers: chainWorkers})
}

// TestE13PipelineBeatsBarriers keeps what is still true of the frozen
// E13 experiment on its world (32 sources, 3 and 5 conjuncts, 8 workers
// and 8 pinned partitions): rows identical to the sequential reference,
// and the chain streams across every step. The forced per-step-barrier
// leg it used to race was removed in PR 24; the ratio is frozen in
// BENCH_PR3.json.
func TestE13PipelineBeatsBarriers(t *testing.T) {
	for _, nt := range []int{3, 5} {
		eng, q := buildChainWorld(chainSources, chainInstances, nt, chainDup)
		want, err := eng.ExecuteWith(q, query.Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.ExecuteWith(q, query.Options{Workers: chainWorkers, Partitions: chainWorkers})
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) == 0 || !want.EqualRows(got) {
			t.Errorf("%d triples: pipeline diverged from sequential (%d vs %d rows)", nt, len(got.Rows), len(want.Rows))
		}
		if got.Stats.PipelinedSteps != nt-1 {
			t.Errorf("%d triples: chain did not stream across every step: %+v", nt, got.Stats)
		}
	}
}

// BenchmarkE13WorldPipelined tracks the cross-step pipeline on the
// deep-chain world for -benchmem.
func BenchmarkE13WorldPipelined(b *testing.B) {
	eng, q := buildChainWorld(8, 60, 5, 2)
	benchWorldExec(b, eng, q, query.Options{Workers: 4})
}

// TestE15BoundedMemoryCompletes locks the E15 acceptance shape on a
// scaled-down cap: the capped run must spill, keep its accounted peak
// under the cap, and return rows byte-identical to the unbounded
// pipeline and the sequential reference. The wall-clock bar (≤1.5x) is
// reported by `onionbench -exp E15` and recorded in BENCH_PR5.json;
// the test asserts only the timing-independent invariants so CI stays
// robust on shared runners.
func TestE15BoundedMemoryCompletes(t *testing.T) {
	r := runE15(e15Cap)
	if !r.identical {
		t.Errorf("capped rows diverged from unbounded/sequential")
	}
	if !r.forcedSpilling {
		t.Errorf("cap %d did not force spilling (unbounded peak %d)", r.cap, r.unboundedPeak)
	}
	if !r.peakUnderCap {
		t.Errorf("accounted peak %d exceeds cap %d", r.cappedPeak, r.cap)
	}
	if r.unboundedPeak <= r.cap {
		t.Errorf("world too small: unbounded peak %d under cap %d", r.unboundedPeak, r.cap)
	}
	if r.adaptiveSteps == 0 {
		t.Errorf("partition counts not planner-derived")
	}
	if r.rows == 0 {
		t.Errorf("bounded run produced no rows")
	}
}
