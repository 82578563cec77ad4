package bench

import (
	"testing"

	"repro/internal/query"
)

// Allocation-regression benchmarks: run with -benchmem (CI's bench smoke
// does) to track per-operation allocations of the planned executors on
// the fan-out, join-heavy and deep-chain worlds.

func benchWorldExec(b *testing.B, eng *query.Engine, q query.Query, opts query.Options) {
	b.Helper()
	if _, err := runQuery(eng, q, opts); err != nil { // warm plan + indexes
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runQuery(eng, q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFanoutWorldTupleJoins(b *testing.B) {
	eng, q := buildFanoutWorld(8, 500)
	benchWorldExec(b, eng, q, query.Options{})
}

func BenchmarkJoinWorldTupleJoins(b *testing.B) {
	eng, q := buildJoinWorld(2, 500, 4)
	benchWorldExec(b, eng, q, query.Options{})
}

// BenchmarkJoinWorldBatch tracks the columnar batch pipeline on the join
// world scaled to 6000 instances per source, where one execution runs
// tens of milliseconds — for -benchmem tracking and profiling.
func BenchmarkJoinWorldBatch(b *testing.B) {
	eng, q := buildJoinWorld(2, 6000, 4)
	benchWorldExec(b, eng, q, query.Options{Workers: chainWorkers})
}

// BenchmarkChainWorldPipelined tracks the cross-step pipeline on the
// deep-chain world for -benchmem.
func BenchmarkChainWorldPipelined(b *testing.B) {
	eng, q := buildChainWorld(8, 60, 5, 2)
	benchWorldExec(b, eng, q, query.Options{Workers: 4})
}

// BenchmarkChainWorldBounded runs the depth-5 chain world unbounded and
// under boundedCap: capped ns/op over unbounded ns/op is the honest
// cost of bounding memory (spill I/O and the extra encode/decode pass).
func BenchmarkChainWorldBounded(b *testing.B) {
	eng, q := buildChainWorld(chainSources, chainInstances, 5, chainDup)
	b.Run("unbounded", func(b *testing.B) {
		benchWorldExec(b, eng, q, query.Options{Workers: chainWorkers})
	})
	b.Run("capped", func(b *testing.B) {
		benchWorldExec(b, eng, q, query.Options{Workers: chainWorkers, MemoryLimit: boundedCap})
	})
}
