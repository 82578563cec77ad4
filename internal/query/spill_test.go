package query

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/articulation"
	"repro/internal/kb"
	"repro/internal/ontology"
	"repro/internal/query/mem"
	"repro/internal/rowcodec"
	"repro/internal/rules"
)

// adversarialValues is the payload set the spill codec must round-trip
// kind-strictly: raw NUL bytes (the rowkey terminator), the 0xff escape
// byte, NaN (payload-canonicalised), signed zeros, infinities, and
// kind-colliding renderings (Term/String/Number that format alike).
var adversarialValues = []kb.Value{
	kb.Term("plain"),
	kb.Term(""),
	kb.Term("a\x00b"),
	kb.Term("\x00"),
	kb.Term("\x00\xff"),
	kb.Term("a\x00\x00c"),
	kb.Term("\xffc"),
	kb.Term("3000"),
	kb.String("3000"),
	kb.String("a\x00b"),
	kb.String(""),
	kb.Number(3000),
	kb.Number(0),
	kb.Number(math.Copysign(0, -1)),
	kb.Number(math.NaN()),
	kb.Number(math.Inf(1)),
	kb.Number(math.Inf(-1)),
	kb.Number(-2.5),
}

// TestValueKeyRoundTrip locks rowcodec.DecodeValue as the exact inverse
// of rowcodec.AppendValue — the property the spill wire format rests on.
// NaN is the one non-identity: every NaN decodes to the canonical quiet
// NaN, which is equal to the original under the engine's semantics.
func TestValueKeyRoundTrip(t *testing.T) {
	for _, v := range adversarialValues {
		enc := rowcodec.AppendValue(nil, v)
		got, n, err := rowcodec.DecodeValue(enc)
		if err != nil {
			t.Errorf("%v: decode error: %v", v, err)
			continue
		}
		if n != len(enc) {
			t.Errorf("%v: consumed %d of %d bytes", v, n, len(enc))
		}
		if !rowcodec.SameCell(v, got) {
			t.Errorf("round-trip diverged: %#v -> %#v", v, got)
		}
		// Re-encoding the decoded value must reproduce the bytes — the
		// byte-identical-rows contract of the spill leg.
		if string(rowcodec.AppendValue(nil, got)) != string(enc) {
			t.Errorf("%v: re-encode differs from original encoding", v)
		}
	}
	// Concatenated fields decode in sequence without framing drift.
	var buf []byte
	for _, v := range adversarialValues {
		buf = rowcodec.AppendValue(buf, v)
	}
	rest := buf
	for i, v := range adversarialValues {
		got, n, err := rowcodec.DecodeValue(rest)
		if err != nil {
			t.Fatalf("field %d: %v", i, err)
		}
		if !rowcodec.SameCell(v, got) {
			t.Fatalf("field %d diverged: %#v -> %#v", i, v, got)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after decoding all fields", len(rest))
	}
}

// TestDecodeValueKeyRejectsMalformed locks the decoder's error paths:
// truncated and corrupt encodings must error, never mis-frame.
func TestDecodeValueKeyRejectsMalformed(t *testing.T) {
	for _, bad := range [][]byte{
		{},                          // empty
		{byte(kb.KindNumber)},       // truncated number
		{byte(kb.KindNumber), 1, 2}, // short number
		{byte(kb.KindTerm), 'a'},    // unterminated payload
		{7, 'a', 0},                 // unknown kind tag
	} {
		if _, _, err := rowcodec.DecodeValue(bad); err == nil {
			t.Errorf("decode(%v) accepted malformed input", bad)
		}
	}
}

// FuzzValueKeyRoundTrip fuzzes the encode/decode pair with arbitrary
// payloads and float images.
func FuzzValueKeyRoundTrip(f *testing.F) {
	f.Add(uint8(0), "a\x00b", 3.5)
	f.Add(uint8(1), "\x00\xff", math.Inf(1))
	f.Add(uint8(2), "", math.NaN())
	f.Fuzz(func(t *testing.T, kind uint8, s string, n float64) {
		var v kb.Value
		switch kind % 3 {
		case 0:
			v = kb.Term(s)
		case 1:
			v = kb.String(s)
		default:
			v = kb.Number(n)
		}
		enc := rowcodec.AppendValue(nil, v)
		got, used, err := rowcodec.DecodeValue(enc)
		if err != nil {
			t.Fatalf("decode(%#v): %v", v, err)
		}
		if used != len(enc) {
			t.Fatalf("decode(%#v) consumed %d of %d", v, used, len(enc))
		}
		if !rowcodec.SameCell(v, got) {
			t.Fatalf("round-trip diverged: %#v -> %#v", v, got)
		}
	})
}

// writeRow appends one row to run through a one-row scratch batch of
// alloc: vals fill slots 0.., and the row's hash is h.
func writeRow(t testing.TB, run *spillRun, alloc *batchAlloc, h uint64, vals ...kb.Value) {
	t.Helper()
	b := alloc.get()
	defer alloc.put(b)
	for s, v := range vals {
		b.cols[s][0] = v
	}
	b.hashes[0] = h
	b.n = 1
	if err := run.add(b, 0); err != nil {
		t.Fatal(err)
	}
}

// TestSpillRunRoundTrip pushes rows through a spill run and replays them
// into batches: hashes and every adversarial value in the run's listed
// slots must survive, replay must cut batches at the allocator's
// capacity (1, 32 and 33 records straddle the 32-row budgeted batch),
// and a slot outside the run's list is neither written nor overwritten
// on decode.
func TestSpillRunRoundTrip(t *testing.T) {
	const width = 4
	listed := []int{2, 0, 3} // written in list order; slot 1 is unlisted
	const unlisted = 1
	sentinel := kb.String("unlisted-sentinel")
	for _, count := range []int{1, 32, 33} {
		// A limited budget sizes batches at budgetedBatchRows.
		root := mem.New(1 << 20)
		alloc := newBatchAlloc(width, root)
		run, err := newSpillRun("", root, listed)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][width]kb.Value, count)
		hashes := make([]uint64, count)
		for r := range want {
			for k, s := range listed {
				want[r][s] = adversarialValues[(3*r+k)%len(adversarialValues)]
			}
			// The source row's unlisted slot carries a value that must not
			// reach the run.
			want[r][unlisted] = kb.Term("never-spilled")
			hashes[r] = uint64(r) * 0x9E3779B97F4A7C15
			writeRow(t, run, alloc, hashes[r], want[r][:]...)
		}

		var sizes []int
		r := 0
		err = run.replay(alloc, func(b *colBatch) error {
			sizes = append(sizes, b.n)
			for i := 0; i < b.n; i, r = i+1, r+1 {
				if b.hashes[i] != hashes[r] {
					t.Errorf("%d records: row %d: hash %x, want %x", count, r, b.hashes[i], hashes[r])
				}
				for _, s := range listed {
					if !rowcodec.SameCell(b.cols[s][i], want[r][s]) {
						t.Errorf("%d records: row %d slot %d: %#v, want %#v", count, r, s, b.cols[s][i], want[r][s])
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if r != count {
			t.Fatalf("%d records: replayed %d", count, r)
		}
		wantSizes := []int{count}
		if count > budgetedBatchRows {
			wantSizes = []int{budgetedBatchRows, count - budgetedBatchRows}
		}
		if fmt.Sprint(sizes) != fmt.Sprint(wantSizes) {
			t.Errorf("%d records: replay batch sizes %v, want %v", count, sizes, wantSizes)
		}

		// Decode into a batch whose unlisted column is pre-filled: the
		// sentinel must survive every read, the run is re-readable.
		sr, err := run.reader()
		if err != nil {
			t.Fatal(err)
		}
		b := alloc.get()
		for i := range b.cols[unlisted] {
			b.cols[unlisted][i] = sentinel
		}
		got := 0
		for {
			ok, err := sr.read(b)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			for i := 0; i < b.n; i++ {
				if !rowcodec.SameCell(b.cols[unlisted][i], sentinel) {
					t.Fatalf("%d records: row %d: unlisted slot overwritten with %#v", count, got+i, b.cols[unlisted][i])
				}
			}
			got += b.n
		}
		alloc.put(b)
		if got != count {
			t.Fatalf("%d records: reader decoded %d", count, got)
		}
		run.close()
		if used := root.Used(); used != 0 {
			t.Fatalf("%d records: budget not released: used = %d", count, used)
		}
	}
}

// TestSpillRunTruncatedRecord cuts a run's file at every byte short of
// its full length: replay must fail with an error wrapping the spill-read
// context — never panic, never report a clean end.
func TestSpillRunTruncatedRecord(t *testing.T) {
	root := mem.New(0)
	alloc := newBatchAlloc(2, root)
	run, err := newSpillRun("", root, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer run.close()
	for r := 0; r < 4; r++ {
		writeRow(t, run, alloc, uint64(r), kb.Term(fmt.Sprintf("k\x00%d", r)), kb.Number(float64(r)))
	}
	if err := run.w.Flush(); err != nil {
		t.Fatal(err)
	}
	info, err := run.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	for cut := info.Size() - 1; cut >= 0; cut-- {
		if err := run.f.Truncate(cut); err != nil {
			t.Fatal(err)
		}
		err := run.replay(alloc, func(*colBatch) error { return nil })
		if err == nil || !strings.HasPrefix(err.Error(), "query: spill read") {
			t.Fatalf("cut at %d of %d bytes: replay error %v, want a spill read error", cut, info.Size(), err)
		}
	}
	if used := root.Used(); used != spillBufBytes {
		t.Fatalf("failed replays leaked their decode batch: used = %d", used)
	}
}

// TestSpillRunCorruptLengthPrefix overwrites a run's first length
// prefix on disk — with the largest uvarint, and with one short enough
// to read but longer than any record the run wrote. Replay must refuse
// the record with a spill-read error instead of sizing a buffer from the
// prefix (the largest one panicked in make), and closing the run must
// hand the budget back in full.
func TestSpillRunCorruptLengthPrefix(t *testing.T) {
	for _, prefix := range [][]byte{
		binary.AppendUvarint(nil, math.MaxUint64),
		binary.AppendUvarint(nil, 0x7f),
	} {
		root := mem.New(0)
		alloc := newBatchAlloc(2, root)
		run, err := newSpillRun("", root, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 4; r++ {
			writeRow(t, run, alloc, uint64(r), kb.Term(fmt.Sprintf("k%d", r)), kb.Number(float64(r)))
		}
		if err := run.w.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := run.f.WriteAt(prefix, 0); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("prefix %x: replay panicked: %v", prefix, p)
				}
			}()
			err = run.replay(alloc, func(*colBatch) error { return nil })
		}()
		if err == nil || !strings.HasPrefix(err.Error(), "query: spill read") {
			t.Fatalf("prefix %x: replay error %v, want a spill read error", prefix, err)
		}
		run.close()
		if used := root.Used(); used != 0 {
			t.Fatalf("prefix %x: budget not released: used = %d", prefix, used)
		}
	}
}

// spillAdversarialEngine builds a two-source world whose KB objects draw
// from the adversarial payload set, joined on a shared ?x chain — the
// world where a framing or kind bug in the spill path would corrupt rows.
func spillAdversarialEngine(t testing.TB, instances int, seed int64) (*Engine, Query) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sources := make(map[string]*Source, 2)
	var onts []*ontology.Ontology
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("adv%d", i)
		o := ontology.New(name)
		o.MustAddTerm("Item")
		for _, p := range []string{"P1", "P2", "P3"} {
			o.MustAddTerm(p)
			o.MustRelate("Item", ontology.AttributeOf, p)
		}
		store := kb.New(name)
		for k := 0; k < instances; k++ {
			inst := fmt.Sprintf("%sI%d", name, k)
			store.MustAdd(inst, "InstanceOf", kb.Term("Item"))
			for _, p := range []string{"P1", "P2", "P3"} {
				// A couple of values per predicate, drawn from the
				// adversarial set so join keys and projected cells carry
				// NULs, NaNs and kind collisions.
				for d := 0; d < 2; d++ {
					store.MustAdd(inst, p, adversarialValues[rng.Intn(len(adversarialValues))])
				}
			}
		}
		sources[name] = &Source{Ont: o, KB: store}
		onts = append(onts, o)
	}
	set := rules.NewSet(rules.MustParse("adv1.Item => adv2.Item"))
	res, err := articulation.Generate("advart", onts[0], onts[1], set, articulation.Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(res.Art, sources)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParse("SELECT ?x ?a ?b ?c WHERE ?x InstanceOf Item . ?x P1 ?a . ?x P2 ?b . ?x P3 ?c")
	return eng, q
}

// TestSpillJoinMatchesInMemory is the spill determinism property: under
// a budget tiny enough to force every join partition into grace-hash
// spilling, rows must stay byte-identical (EqualRows, kind-strict) to
// the sequential reference and to the unbounded pipeline — across
// adversarial rowkey payloads (NaN, raw NULs, 0xff, kind collisions)
// and across seeds.
func TestSpillJoinMatchesInMemory(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		eng, q := spillAdversarialEngine(t, 40, seed)
		want, err := runQuery(eng, q, Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("seed %d: adversarial world produced no rows", seed)
		}
		unbounded, err := runQuery(eng, q, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !want.EqualRows(unbounded) {
			t.Fatalf("seed %d: unbounded pipeline diverged from sequential", seed)
		}
		spilled, err := runQuery(eng, q, Options{Workers: 4, MemoryLimit: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		if spilled.Stats.SpilledPartitions == 0 {
			t.Fatalf("seed %d: 4KB budget did not spill: %+v", seed, spilled.Stats)
		}
		if !want.EqualRows(spilled) {
			t.Errorf("seed %d: spilled rows diverged: sequential %d rows, spilled %d rows",
				seed, len(want.Rows), len(spilled.Rows))
		}
		if spilled.Stats.JoinedRows != want.Stats.JoinedRows {
			t.Errorf("seed %d: JoinedRows = %d, want %d", seed,
				spilled.Stats.JoinedRows, want.Stats.JoinedRows)
		}
	}
}

// TestSpillDeepChain forces the deep-chain world through the spill path
// at several budgets (from "everything spills" to "some partitions
// fit") and demands byte-identical rows and deterministic JoinedRows at
// every cap.
func TestSpillDeepChain(t *testing.T) {
	eng, q := deepChainEngine(t, 60, 2)
	want, err := runQuery(eng, q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int64{1 << 13, 1 << 16, 1 << 20} {
		got, err := runQuery(eng, q, Options{Workers: 4, MemoryLimit: limit})
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if !want.EqualRows(got) {
			t.Errorf("limit %d: rows diverged (sequential %d, budgeted %d)",
				limit, len(want.Rows), len(got.Rows))
		}
		if got.Stats.JoinedRows != want.Stats.JoinedRows {
			t.Errorf("limit %d: JoinedRows = %d, want %d", limit,
				got.Stats.JoinedRows, want.Stats.JoinedRows)
		}
		if limit <= 1<<16 && got.Stats.SpilledPartitions == 0 {
			t.Errorf("limit %d: expected spilling: %+v", limit, got.Stats)
		}
		if got.Stats.SpilledPartitions > 0 && got.Stats.SpillRuns == 0 {
			t.Errorf("limit %d: spilled partitions without runs: %+v", limit, got.Stats)
		}
	}
}

// TestSpillWithFilters checks that per-step filters apply identically on
// the grace-hash completion path (filters run in the emit closure the
// spill join shares with the live path).
func TestSpillWithFilters(t *testing.T) {
	eng, _ := deepChainEngine(t, 50, 2)
	q := MustParse("SELECT ?x ?v0 WHERE ?x InstanceOf Item . ?x C1 ?v0 . ?x C2 ?v1 . FILTER ?v0 > 3 . FILTER ?v1 < 1010")
	want, err := runQuery(eng, q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runQuery(eng, q, Options{Workers: 4, MemoryLimit: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.SpilledPartitions == 0 {
		t.Fatalf("filter world did not spill: %+v", got.Stats)
	}
	if !want.EqualRows(got) {
		t.Errorf("filtered spill rows diverged: sequential %d, spilled %d",
			len(want.Rows), len(got.Rows))
	}
}

// TestBudgetUnlimitedNeverSpills locks the zero-limit contract: without
// MemoryLimit the pipeline accounts (BytesReserved > 0) but never
// degrades.
func TestBudgetUnlimitedNeverSpills(t *testing.T) {
	eng, q := deepChainEngine(t, 40, 2)
	got, err := runQuery(eng, q, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.SpilledPartitions != 0 || got.Stats.SpillRuns != 0 {
		t.Errorf("unlimited run spilled: %+v", got.Stats)
	}
	if got.Stats.BytesReserved == 0 {
		t.Errorf("unlimited run not accounted: %+v", got.Stats)
	}
}

// TestOneWorkerBudgetSpills pins Options{MemoryLimit} at one scan
// worker: the single worker parks step 0's output as pending probe
// batches, and under the limit those must overflow to spill runs rather
// than stay resident. Held fully in memory, as materialised frontiers,
// this world accounts 1 220 096 bytes.
func TestOneWorkerBudgetSpills(t *testing.T) {
	eng, q := joinHeavyEngine(t, 2000)
	want, err := runQuery(eng, q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runQuery(eng, q, Options{Workers: 1, MemoryLimit: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.SpilledPartitions == 0 {
		t.Errorf("one-worker budgeted run did not spill: %+v", got.Stats)
	}
	if got.Stats.BytesReserved >= 1220096 {
		t.Errorf("one-worker budgeted run accounted %d bytes, want under the unspilled 1220096",
			got.Stats.BytesReserved)
	}
	if !want.EqualRows(got) {
		t.Errorf("one-worker budgeted rows diverged: sequential %d rows, got %d",
			len(want.Rows), len(got.Rows))
	}
}

// probeOverflowEngine builds a world whose only join has a large probe
// side and a tiny build side, in that order: step 0 is `?x InstanceOf
// Item` (instances rows) and step 1 `?x Color Red`, which the planner
// runs second because its estimate counts every Color fact (two per
// instance) while only the first red instances match.
func probeOverflowEngine(t testing.TB, instances, red int) (*Engine, Query) {
	t.Helper()
	o := ontology.New("po")
	for _, term := range []string{"Item", "Color", "Red", "Blue", "Green"} {
		o.MustAddTerm(term)
	}
	o.MustRelate("Item", ontology.AttributeOf, "Color")
	other := ontology.New("poother")
	other.MustAddTerm("Item")
	store := kb.New("po")
	for k := 0; k < instances; k++ {
		inst := fmt.Sprintf("I%d", k)
		store.MustAdd(inst, "InstanceOf", kb.Term("Item"))
		store.MustAdd(inst, "Color", kb.Term("Blue"))
		store.MustAdd(inst, "Color", kb.Term("Green"))
		if k < red {
			store.MustAdd(inst, "Color", kb.Term("Red"))
		}
	}
	set := rules.NewSet(rules.MustParse("po.Item => poother.Item"))
	res, err := articulation.Generate("poart", o, other, set, articulation.Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(res.Art, map[string]*Source{"po": {Ont: o, KB: store}, "poother": {Ont: other}})
	if err != nil {
		t.Fatal(err)
	}
	return eng, MustParse("SELECT ?x WHERE ?x InstanceOf Item . ?x Color Red")
}

// TestSpillProbeOverflow pins the probe-overflow path deterministically:
// the degraded partition whose build run stays empty. At one scan
// worker every step-0 batch is sent before the first build batch, and
// the 6 000 probe rows (some 190 batches of 1 288 accounted bytes)
// overflow the 128 KB pool after 101 parked batches, leaving 984 bytes
// free — room for the whole build side (4 rows of 56 bytes) in any
// arrival order, since the pool charges every parked batch the same. The
// root's other half holds the probe runs' write buffers and the batches
// in flight, so it never refuses a build batch either. Every spilled
// partition therefore writes one probe run and no build run, nothing
// degrades hybrid, and rows and JoinedRows match the sequential
// reference.
func TestSpillProbeOverflow(t *testing.T) {
	eng, q := probeOverflowEngine(t, 6000, 4)
	want, err := runQuery(eng, q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 4 {
		t.Fatalf("probe-overflow world produced %d rows, want 4", len(want.Rows))
	}
	got, err := runQuery(eng, q, Options{Workers: 1, MemoryLimit: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	st := got.Stats
	if st.SpilledPartitions == 0 || st.HybridJoins != 0 {
		t.Fatalf("want probe overflow only (spilled partitions, none hybrid): %+v", st)
	}
	if st.SpillRuns != st.SpilledPartitions || st.ProjectionSpills != 0 {
		t.Fatalf("want one probe run per spilled partition, no build or projection runs: %+v", st)
	}
	if !want.EqualRows(got) {
		t.Errorf("probe-overflow rows diverged: sequential %d rows, got %d", len(want.Rows), len(got.Rows))
	}
	if st.JoinedRows != want.Stats.JoinedRows {
		t.Errorf("JoinedRows = %d, want %d", st.JoinedRows, want.Stats.JoinedRows)
	}
}

// TestAdaptivePartitionCounts locks the planner-derived partition
// sizing: a skewed world (one predicate carrying 8x the facts of
// another) gets per-step counts proportional to the estimates — the
// heavy step fans out wider than the light one — while an explicit
// Options{Partitions} pins every step and zeroes the adaptive counter.
func TestAdaptivePartitionCounts(t *testing.T) {
	name := "sk"
	o := ontology.New(name)
	o.MustAddTerm("Item")
	for _, p := range []string{"Light", "Heavy"} {
		o.MustAddTerm(p)
		o.MustRelate("Item", ontology.AttributeOf, p)
	}
	other := ontology.New("skother")
	other.MustAddTerm("Item")
	store := kb.New(name)
	for k := 0; k < 700; k++ {
		inst := fmt.Sprintf("I%d", k)
		store.MustAdd(inst, "InstanceOf", kb.Term("Item"))
		store.MustAdd(inst, "Light", kb.Number(float64(k%7)))
		for d := 0; d < 8; d++ {
			store.MustAdd(inst, "Heavy", kb.Number(float64(k%11*10+d)))
		}
	}
	set := rules.NewSet(rules.MustParse("sk.Item => skother.Item"))
	res, err := articulation.Generate("skart", o, other, set, articulation.Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(res.Art, map[string]*Source{
		name:      {Ont: o, KB: store},
		"skother": {Ont: other},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := MustParse("SELECT ?x ?l ?h WHERE ?x InstanceOf Item . ?x Light ?l . ?x Heavy ?h")
	plan, _, err := eng.Explain(context.Background(), q, Options{Workers: 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	var light, heavy int
	for _, tp := range plan.Triples {
		switch tp.Triple {
		case "?x Light ?l":
			light = tp.Partitions
		case "?x Heavy ?h":
			heavy = tp.Partitions
		}
	}
	if light == 0 || heavy == 0 {
		t.Fatalf("join steps missing partition counts: %+v", plan.Triples)
	}
	if heavy <= light {
		t.Fatalf("heavy step (%d parts) not wider than light step (%d parts)", heavy, light)
	}
	got, err := runQuery(eng, q, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Stats.StepPartitions) < 2 {
		t.Fatalf("execution did not pipeline: %+v", got.Stats)
	}
	// The recorded per-step counts must match the explained plan.
	seen := map[int]bool{}
	for _, p := range got.Stats.StepPartitions {
		seen[p] = true
	}
	if !seen[light] || !seen[heavy] {
		t.Fatalf("StepPartitions %v missing explained counts light=%d heavy=%d",
			got.Stats.StepPartitions, light, heavy)
	}
	pinned, err := runQuery(eng, q, Options{Workers: 4, Partitions: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !pinnedAt(pinned.Stats, 5) {
		t.Fatalf("Partitions override not pinned: %+v", pinned.Stats)
	}
	seq, err := runQuery(eng, q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.EqualRows(got) || !seq.EqualRows(pinned) {
		t.Fatalf("partitioning variants diverged from sequential")
	}
}

// graceFixture is a spill partition with both runs open, for driving the
// grace join directly: build rows carry (key, value) in slots 0 and 1,
// probe rows (key, id) in slots 0 and 2, and the join keys on slot 0.
type graceFixture struct {
	t     *testing.T
	stp   *planStep
	root  *mem.Budget
	alloc *batchAlloc
	sp    *spillPart
}

func newGraceFixture(t *testing.T, limit int64) *graceFixture {
	t.Helper()
	root := mem.New(limit)
	alloc := newBatchAlloc(3, root)
	f := &graceFixture{t: t, stp: &planStep{keySlots: []int{0}, newSlots: []int{1}}, root: root, alloc: alloc,
		sp: &spillPart{alloc: alloc, buildSlots: []int{0, 1}, probeSlots: []int{0, 2}}}
	if err := f.sp.ensureBuild(); err != nil {
		t.Fatal(err)
	}
	if err := f.sp.ensureProbe(); err != nil {
		t.Fatal(err)
	}
	return f
}

// add writes one row, hashed on the join key, to run.
func (f *graceFixture) add(run *spillRun, key string, slot int, v float64) {
	f.t.Helper()
	b := f.alloc.get()
	defer f.alloc.put(b)
	b.n = 1
	b.cols[0][0] = kb.Term(key)
	b.cols[slot][0] = kb.Number(v)
	b.hashKeys(f.stp.keySlots)
	if err := run.add(b, 0); err != nil {
		f.t.Fatal(err)
	}
}

// collect returns a probe callback recording every key-equal match as
// "key/probe id/build value", counted (a multiset).
func (f *graceFixture) collect(got map[string]int) func(*colBatch, *buildStore) {
	return func(pb *colBatch, bs *buildStore) {
		for i := 0; i < pb.n; i++ {
			for j := bs.head(pb.hashes[i]); j >= 0; j = bs.next[j] {
				if bs.keysEqualAt(pb, i, j, f.stp.keySlots) {
					got[fmt.Sprintf("%s/%g/%g", pb.cols[0][i].Str, pb.cols[2][i].Num, bs.cols[1][j].Num)]++
				}
			}
		}
	}
}

// TestGraceJoinOversizedBuild drives the grace join with a build run
// many times larger than the budget: the two run buffers already fill
// the 16KB root, so no build batch reserves and every chunk stops at the
// minChunkTuples floor. The join must open no run beyond the two, pay at
// most ⌈build/minChunkTuples⌉ probe passes, emit exactly the in-memory
// join's match multiset and release every reservation.
func TestGraceJoinOversizedBuild(t *testing.T) {
	f := newGraceFixture(t, 16<<10)
	const buildN = 1000
	for i := 0; i < buildN; i++ {
		f.add(f.sp.build, fmt.Sprintf("k%d", i), 1, float64(i))
	}
	// Probe every third key, plus misses that can never match.
	want := make(map[string]int)
	for i := 0; i < buildN; i += 3 {
		f.add(f.sp.probe, fmt.Sprintf("k%d", i), 2, float64(i))
		want[fmt.Sprintf("k%d/%d/%d", i, i, i)]++
		f.add(f.sp.probe, fmt.Sprintf("miss%d", i), 2, float64(i))
	}
	got := make(map[string]int)
	collect := f.collect(got)
	passes := 0
	var last *buildStore // each chunk builds a fresh store
	err := f.sp.join(f.stp, func(pb *colBatch, bs *buildStore) {
		if bs != last {
			passes++
			last = bs
		}
		collect(pb, bs)
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs, _ := f.sp.totals(); runs != 2 {
		t.Fatalf("join opened %d runs, want only the build and probe runs", runs)
	}
	if maxPasses := (buildN + minChunkTuples - 1) / minChunkTuples; passes == 0 || passes > maxPasses {
		t.Fatalf("build run joined in %d probe passes, want 1..%d", passes, maxPasses)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("matches diverged: got %d distinct, want %d", len(got), len(want))
	}
	f.sp.close()
	if used := f.root.Used(); used != 0 {
		t.Fatalf("budget not released after join: used = %d", used)
	}
}

// TestGraceJoinChunkCarry pins multi-chunk completion of the grace join:
// with the root cap already spent (the two run buffers fill it), no
// build batch reserves, so every chunk stops at the minChunkTuples floor
// and the batch that closed one chunk must open the next. The build run
// (duplicate keys, so matches fan out) needs at least three chunks, and
// every in-memory match must be emitted exactly once.
func TestGraceJoinChunkCarry(t *testing.T) {
	f := newGraceFixture(t, 2*spillBufBytes)
	const buildN, keys = 400, 50
	for i := 0; i < buildN; i++ {
		f.add(f.sp.build, fmt.Sprintf("k%d", i%keys), 1, float64(i))
	}
	// Fewer probe rows than one batch holds, so each chunk's probe pass is
	// exactly one callback; k0 probes twice.
	probeKeys := []string{"k0", "k0", "k7", "k19", "k49", "miss1", "miss2"}
	want := make(map[string]int)
	for id, key := range probeKeys {
		f.add(f.sp.probe, key, 2, float64(id))
		for i := 0; i < buildN; i++ {
			if fmt.Sprintf("k%d", i%keys) == key {
				want[fmt.Sprintf("%s/%d/%d", key, id, i)]++
			}
		}
	}
	got := make(map[string]int)
	collect := f.collect(got)
	passes := 0
	err := f.sp.join(f.stp, func(pb *colBatch, bs *buildStore) {
		passes++
		collect(pb, bs)
	})
	if err != nil {
		t.Fatal(err)
	}
	if passes < 3 {
		t.Fatalf("build run joined in %d chunks, want at least 3", passes)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("matches diverged over %d chunks:\n got %v\nwant %v", passes, got, want)
	}
	f.sp.close()
	if used := f.root.Used(); used != 0 {
		t.Fatalf("budget not released after join: used = %d", used)
	}
}

// projWideEngine builds a two-source world whose *distinct answer set*
// dwarfs any single join build table: every instance carries one unique
// P value, so the streaming projection must retain one row per instance
// while each join partition only ever holds its share of the chain.
// This is the world where, before the projection learned to spill, the
// answer alone blew past Options{MemoryLimit} via MustReserve.
func projWideEngine(t testing.TB, instances int) (*Engine, Query) {
	t.Helper()
	sources := make(map[string]*Source, 2)
	var onts []*ontology.Ontology
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("pw%d", i)
		o := ontology.New(name)
		o.MustAddTerm("Item")
		o.MustAddTerm("P")
		o.MustRelate("Item", ontology.AttributeOf, "P")
		store := kb.New(name)
		for k := 0; k < instances; k++ {
			inst := fmt.Sprintf("%sI%d", name, k)
			store.MustAdd(inst, "InstanceOf", kb.Term("Item"))
			store.MustAdd(inst, "P", kb.Number(float64(i*1000000+k)))
		}
		sources[name] = &Source{Ont: o, KB: store}
		onts = append(onts, o)
	}
	set := rules.NewSet(rules.MustParse("pw1.Item => pw2.Item"))
	res, err := articulation.Generate("pwart", onts[0], onts[1], set, articulation.Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(res.Art, sources)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParse("SELECT ?x ?v WHERE ?x InstanceOf Item . ?x P ?v")
	return eng, q
}

// TestProjectionSpillMatchesInMemory is satellite determinism for the
// spillable projection: under a cap the distinct answer set cannot fit,
// the dedup sets must rotate to sorted runs (Stats.ProjectionSpills)
// and the merged-back rows must stay byte-identical to the sequential
// reference, under planner-sized and pinned partition counts.
func TestProjectionSpillMatchesInMemory(t *testing.T) {
	eng, q := projWideEngine(t, 4000)
	want, err := runQuery(eng, q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 8000 {
		t.Fatalf("projection world produced %d rows, want 8000", len(want.Rows))
	}
	unbounded, err := runQuery(eng, q, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.Stats.ProjectionSpills != 0 {
		t.Fatalf("unbounded run rotated its projection: %+v", unbounded.Stats)
	}
	if !want.EqualRows(unbounded) {
		t.Fatal("unbounded pipeline diverged from sequential")
	}
	for _, leg := range []struct {
		name string
		opts Options
	}{
		{"batch", Options{Workers: 4, MemoryLimit: 1 << 19}},
		{"batch-parts-2", Options{Workers: 4, Partitions: 2, MemoryLimit: 1 << 19}},
	} {
		got, err := runQuery(eng, q, leg.opts)
		if err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		if got.Stats.ProjectionSpills == 0 {
			t.Fatalf("%s: answer set over the cap did not rotate the projection: %+v",
				leg.name, got.Stats)
		}
		if got.Stats.SpillRuns == 0 {
			t.Errorf("%s: projection spilled without runs: %+v", leg.name, got.Stats)
		}
		if got.Stats.SpilledBytes == 0 {
			t.Errorf("%s: projection spilled without bytes: %+v", leg.name, got.Stats)
		}
		if !want.EqualRows(got) {
			t.Errorf("%s: projection-spilled rows diverged: sequential %d rows, got %d",
				leg.name, len(want.Rows), len(got.Rows))
		}
	}
}

// newTestProj returns a two-cell streaming projection (SELECT slots 0
// and 1) with a spill pool, for driving its runs directly; root is
// unlimited, so nothing rotates unless the test calls rotate.
func newTestProj() (*stageProj, *batchAlloc) {
	root := mem.New(0)
	pp := &stageProj{sel: []int{0, 1}, keys: make(map[string]struct{}), bud: root, spill: root.Child(0)}
	return pp, newBatchAlloc(2, root)
}

// addProjRow projects the row (a, b) through addBatchRow.
func addProjRow(pp *stageProj, alloc *batchAlloc, a, b kb.Value) {
	bt := alloc.get()
	defer alloc.put(bt)
	bt.cols[0][0], bt.cols[1][0] = a, b
	bt.n = 1
	pp.addBatchRow(bt, 0)
}

// TestProjectionSpillRunTruncated cuts a projection run at every byte short
// of its full length: the merge must fail with a spill-read error —
// never panic, never report a clean end.
func TestProjectionSpillRunTruncated(t *testing.T) {
	pp, alloc := newTestProj()
	for r := 0; r < 4; r++ {
		addProjRow(pp, alloc, kb.Term(fmt.Sprintf("k\x00%d", r)), kb.Number(float64(r)))
	}
	pp.rotate()
	if pp.err != nil || len(pp.runs) != 1 {
		t.Fatalf("rotate: %d runs, err %v", len(pp.runs), pp.err)
	}
	defer pp.cleanup()
	run := pp.runs[0]
	if err := run.w.Flush(); err != nil {
		t.Fatal(err)
	}
	info, err := run.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	for cut := info.Size() - 1; cut >= 0; cut-- {
		if err := run.f.Truncate(cut); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("cut at %d of %d bytes: merge panicked: %v", cut, info.Size(), p)
				}
			}()
			_, err = pp.mergeRuns()
		}()
		if err == nil || !strings.HasPrefix(err.Error(), "query: spill read") {
			t.Fatalf("cut at %d of %d bytes: merge error %v, want a spill read error", cut, info.Size(), err)
		}
	}
}

// TestProjectionSpillMergeDedup drives finish() over two runs and the
// in-memory remainder: a row in both runs and in the remainder must come
// out once, every row in ascending key order, and rows decoded from the
// runs must equal the originals cell for cell (adversarial payloads).
func TestProjectionSpillMergeDedup(t *testing.T) {
	pp, alloc := newTestProj()
	rowA := [2]kb.Value{kb.Term("a\x00b"), kb.Number(math.NaN())}
	rowB := [2]kb.Value{kb.String("3000"), kb.Number(math.Copysign(0, -1))}
	rowC := [2]kb.Value{kb.Term("\x00\xff"), kb.Number(math.Inf(1))}
	rowD := [2]kb.Value{kb.Number(3000), kb.Term("")}
	for _, set := range [][][2]kb.Value{{rowA, rowB}, {rowB, rowC}, {rowB, rowD}} {
		if len(pp.rows) > 0 {
			pp.rotate() // the previous set becomes a run; the last stays in memory
		}
		for _, r := range set {
			addProjRow(pp, alloc, r[0], r[1])
		}
	}
	if len(pp.runs) != 2 {
		t.Fatalf("want two runs, got %d", len(pp.runs))
	}
	got, err := pp.finish()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]kb.Value{}
	for _, r := range [][2]kb.Value{rowA, rowB, rowC, rowD} {
		want[string(rowcodec.AppendValue(rowcodec.AppendValue(nil, r[0]), r[1]))] = r
	}
	if len(got) != len(want) {
		t.Fatalf("merge emitted %d rows, want %d distinct", len(got), len(want))
	}
	for i, kr := range got {
		if i > 0 && got[i-1].key >= kr.key {
			t.Fatalf("row %d out of key order (or duplicated): %q after %q", i, kr.key, got[i-1].key)
		}
		orig, ok := want[kr.key]
		if !ok {
			t.Fatalf("row %d: unknown key %q", i, kr.key)
		}
		for k := range orig {
			if !rowcodec.SameCell(kr.row[k], orig[k]) {
				t.Errorf("row %d cell %d: %#v, want %#v", i, k, kr.row[k], orig[k])
			}
		}
	}
}

// hybridEngine builds the two-source world where hybrid degradation is a
// function of (plan, limit) rather than of arrival order: one join stage
// whose probe side is a handful of rows (rare `InstanceOf Rare` subjects
// per source — the only InstanceOf facts, so the planner scans them
// first) and whose build side (facts `P` rows per source) overflows any
// small pool. Every instance answers with one row per rare subject.
func hybridEngine(t testing.TB, rare, facts int) (*Engine, Query) {
	t.Helper()
	sources := make(map[string]*Source, 2)
	var onts []*ontology.Ontology
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("hy%d", i)
		o := ontology.New(name)
		o.MustAddTerm("Rare")
		o.MustAddTerm("P")
		o.MustRelate("Rare", ontology.AttributeOf, "P")
		store := kb.New(name)
		for k := 0; k < facts; k++ {
			inst := fmt.Sprintf("%sI%d", name, k)
			if k < rare {
				store.MustAdd(inst, "InstanceOf", kb.Term("Rare"))
			}
			store.MustAdd(inst, "P", kb.Number(float64(i*1000000+k)))
		}
		sources[name] = &Source{Ont: o, KB: store}
		onts = append(onts, o)
	}
	set := rules.NewSet(rules.MustParse("hy1.Rare => hy2.Rare"))
	res, err := articulation.Generate("hyart", onts[0], onts[1], set, articulation.Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(res.Art, sources)
	if err != nil {
		t.Fatal(err)
	}
	return eng, MustParse("SELECT ?x ?v WHERE ?x InstanceOf Rare . ?x P ?v")
}

// TestHybridGraceJoin locks the hybrid degradation: degraded partitions
// keep their frozen in-memory prefix (Stats.HybridJoins) and the
// completion — frozen-half replay plus grace-hash over the spilled half —
// still yields byte-identical rows.
//
// HybridJoins > 0 is asserted only where it cannot race: on hybridEngine
// under a 256 KB limit (128 KB pool), where two facts fixed by (plan,
// limit) hold under any schedule.
//
//  1. The first build batch to arrive anywhere reserves. All that can be
//     charged before it is the probe side parked in the pool (at most
//     `rare` batches per source scan, < 20 KB) and the batch pool's fixed
//     state at the root (staging, routed and in-flight batches: < 140 KB
//     for 2 scan workers over 8 partitions, < 32 KB for one partition),
//     so neither the pool nor the root can refuse a 32-row batch.
//  2. Every partition's build side alone exceeds the pool (16 000 rows of
//     88 bytes over at most 8 partitions), so the partition that kept
//     that first batch is refused later and degrades with a resident
//     prefix — and every partition spills.
//
// The deep-chain world at 64 KB keeps the assertions that hold under any
// schedule there: one stage's build side alone exceeds the pool, so
// something spills, and hybrid partitions are a subset of the spilled
// ones. How many keep a prefix depends on whether early probe batches
// fill the pool before a build batch lands.
func TestHybridGraceJoin(t *testing.T) {
	eng, q := hybridEngine(t, 4, 8000)
	want, err := runQuery(eng, q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 8 {
		t.Fatalf("hybrid world produced %d rows, want 8", len(want.Rows))
	}
	for _, leg := range []struct {
		name string
		opts Options
	}{
		{"batch", Options{Workers: 2, MemoryLimit: 1 << 18}},
		{"batch-parts-1", Options{Workers: 4, Partitions: 1, MemoryLimit: 1 << 18}},
	} {
		got, err := runQuery(eng, q, leg.opts)
		if err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		if parts := widestStep(got.Stats); parts > 8 || got.Stats.SpilledPartitions != parts {
			t.Fatalf("%s: want every one of at most 8 partitions spilled: %+v", leg.name, got.Stats)
		}
		if got.Stats.HybridJoins == 0 {
			t.Fatalf("%s: no partition degraded hybrid (frozen prefix kept): %+v",
				leg.name, got.Stats)
		}
		if got.Stats.HybridJoins > got.Stats.SpilledPartitions {
			t.Errorf("%s: HybridJoins %d > SpilledPartitions %d", leg.name,
				got.Stats.HybridJoins, got.Stats.SpilledPartitions)
		}
		if !want.EqualRows(got) {
			t.Errorf("%s: hybrid rows diverged: sequential %d rows, got %d",
				leg.name, len(want.Rows), len(got.Rows))
		}
		if got.Stats.JoinedRows != want.Stats.JoinedRows {
			t.Errorf("%s: JoinedRows = %d, want %d", leg.name,
				got.Stats.JoinedRows, want.Stats.JoinedRows)
		}
	}

	deep, dq := deepChainEngine(t, 60, 2)
	dwant, err := runQuery(deep, dq, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runQuery(deep, dq, Options{Workers: 4, MemoryLimit: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.SpilledPartitions == 0 {
		t.Fatalf("deep chain: expected spilling at 64KB: %+v", got.Stats)
	}
	if got.Stats.HybridJoins > got.Stats.SpilledPartitions {
		t.Errorf("deep chain: HybridJoins %d > SpilledPartitions %d",
			got.Stats.HybridJoins, got.Stats.SpilledPartitions)
	}
	if !dwant.EqualRows(got) {
		t.Errorf("deep chain: hybrid rows diverged: sequential %d rows, got %d",
			len(dwant.Rows), len(got.Rows))
	}
	if got.Stats.JoinedRows != dwant.Stats.JoinedRows {
		t.Errorf("deep chain: JoinedRows = %d, want %d",
			got.Stats.JoinedRows, dwant.Stats.JoinedRows)
	}
}
