package query

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/kb"
	"repro/internal/query/mem"
)

// This file is the grace-hash spilling machinery of the memory-governed
// pipeline (batchpipe.go). A join partition whose build table (or pending
// probe queue) cannot reserve its next batch from the query Budget
// degrades here: build and probe tuples are written to temp-file runs and
// the join completes partition-by-partition within budget — recursively
// sub-partitioned by further hash bits when a run still does not fit.
//
// The spill wire format reuses the framing-safe rowkey encoding
// (appendValueKey/decodeValueKey) per slot, so spilled tuples round-trip
// kind-strictly: a spilled row can never collapse with, or diverge from,
// its in-memory twin — the tiny-budget determinism suite forces every
// join to spill and still demands byte-identical rows.

const (
	// valueBytes is the accounting cost of one kb.Value slot (struct
	// size; string payloads are shared, not copied, so they are not
	// charged per tuple).
	valueBytes = 32
	// spillFanout is how many hash sub-partitions one recursion level
	// splits a too-big run into.
	spillFanout = 8
	// maxSpillLevel bounds the recursion; a run that still dwarfs its
	// reservation after maxSpillLevel splits (every tuple sharing one
	// join key, say) falls to the chunked join, which degrades
	// gracefully (more probe passes) instead of dividing further.
	maxSpillLevel = 6
	// minSplitTuples is the smallest build run worth re-partitioning:
	// below it the chunked join handles the whole run — 16 more runs
	// cannot beat one or two probe passes, and the floor keeps a
	// degenerate cap from exploding into thousands of
	// single-digit-tuple runs.
	minSplitTuples = 256
	// minChunkTuples floors a chunk's size even when the budget is
	// exhausted (accounted past the limit): each chunk costs a full
	// probe-run pass, so unbounded shrinking would turn a crowded (or
	// adversarially tiny) cap into O(build × probe) disk replays. The
	// floor caps the pass count at build.tuples/minChunkTuples for a
	// ~30KB bounded overshoot per finishing partition.
	minChunkTuples = 128
	// spillBufBytes is the buffered-writer size per open run, charged as
	// fixed working state.
	spillBufBytes = 8 << 10
	// spillDecodeBlock is the arena block size used when decoding run
	// tuples back into memory (small: decode arenas live inside a
	// budget-bounded build attempt).
	spillDecodeBlock = 32
)

// tupleCost is the accounting cost of retaining one width-slot tuple.
func tupleCost(width int) int64 {
	return 24 + int64(width)*valueBytes
}

// spillSub routes a join-key hash to a recursion-level sub-partition,
// consuming hash bits disjoint from the partition routing (h % parts
// uses the low bits; levels walk upward from bit 16).
func spillSub(h uint64, level int) int {
	return int((h >> (16 + 3*uint(level))) & (spillFanout - 1))
}

// spillRun is one temp-file run of (hash, tuple) records. The file is
// unlinked at creation, so runs can never outlive the process whatever
// happens; records are length-prefixed, with the tuple slots encoded by
// appendValueKey — the same kind-tagged framing the joins key on.
type spillRun struct {
	f      *os.File
	w      *bufio.Writer
	bud    *mem.Budget
	tuples int
	closed bool
	buf    []byte // reusable record scratch
	acct   *int64 // optional byte accumulator (Stats.SpilledBytes)
}

// newSpillRun creates an anonymous run in dir ("" = os.TempDir),
// charging its write buffer to the budget as fixed working state.
func newSpillRun(dir string, bud *mem.Budget) (*spillRun, error) {
	f, err := os.CreateTemp(dir, "onion-spill-*")
	if err != nil {
		return nil, fmt.Errorf("query: spill: %w", err)
	}
	// The fd keeps the run alive; the name never needs to.
	os.Remove(f.Name())
	bud.MustReserve(spillBufBytes)
	return &spillRun{f: f, w: bufio.NewWriterSize(f, spillBufBytes), bud: bud}, nil
}

// add appends one (hash, tuple) record.
func (r *spillRun) add(t tuple, h uint64) error {
	rec := r.buf[:0]
	rec = binary.BigEndian.AppendUint64(rec, h)
	for _, v := range t {
		rec = appendValueKey(rec, v)
	}
	r.buf = rec
	var lenb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenb[:], uint64(len(rec)))
	if _, err := r.w.Write(lenb[:n]); err != nil {
		return fmt.Errorf("query: spill write: %w", err)
	}
	if _, err := r.w.Write(rec); err != nil {
		return fmt.Errorf("query: spill write: %w", err)
	}
	if r.acct != nil {
		*r.acct += int64(n + len(rec))
	}
	r.tuples++
	return nil
}

// spillInternCap bounds a reader's decode intern table; past it, fields
// decode without interning (correct either way — the table only saves
// allocations).
const spillInternCap = 8192

// spillReader streams a run's records back in write order. One reader
// at a time per run (it owns the file offset). The intern table reuses
// decoded values for repeated field encodings — run payloads repeat
// heavily (every join key appears once per match), and interning turns
// the dominant decode cost (string allocation plus the GC traffic it
// feeds) into a map probe on the raw bytes.
type spillReader struct {
	run       *spillRun
	br        *bufio.Reader
	remaining int
	rec       []byte
	intern    map[string]kb.Value
}

// reader flushes the run and opens a sequential reader at its start.
func (r *spillRun) reader() (*spillReader, error) {
	if err := r.w.Flush(); err != nil {
		return nil, fmt.Errorf("query: spill flush: %w", err)
	}
	if _, err := r.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("query: spill seek: %w", err)
	}
	return &spillReader{run: r, br: bufio.NewReaderSize(r.f, spillBufBytes),
		remaining: r.tuples, intern: make(map[string]kb.Value)}, nil
}

// next decodes the reader's next record into arena memory; ok is false
// at the end of the run. The returned tuple is owned by the caller.
func (sr *spillReader) next(width int, arena *tupleArena) (tuple, uint64, bool, error) {
	if sr.remaining == 0 {
		return nil, 0, false, nil
	}
	sr.remaining--
	n, err := binary.ReadUvarint(sr.br)
	if err != nil {
		return nil, 0, false, fmt.Errorf("query: spill read: %w", err)
	}
	if uint64(cap(sr.rec)) < n {
		sr.rec = make([]byte, n)
	}
	rec := sr.rec[:n]
	if _, err := io.ReadFull(sr.br, rec); err != nil {
		return nil, 0, false, fmt.Errorf("query: spill read: %w", err)
	}
	if len(rec) < 8 {
		return nil, 0, false, fmt.Errorf("query: spill record truncated")
	}
	h := binary.BigEndian.Uint64(rec[:8])
	body := rec[8:]
	t := arena.next()
	for s := 0; s < width; s++ {
		v, consumed, err := sr.decodeField(body)
		if err != nil {
			return nil, 0, false, fmt.Errorf("query: spill slot %d: %w", s, err)
		}
		t[s] = v
		body = body[consumed:]
	}
	if len(body) != 0 {
		return nil, 0, false, fmt.Errorf("query: spill record has %d trailing bytes", len(body))
	}
	arena.commit()
	return t, h, true, nil
}

// decodeField decodes one value, serving repeated string/term encodings
// from the intern table (the map lookup on the raw bytes allocates
// nothing on a hit). Numbers decode inline — no allocation to save.
func (sr *spillReader) decodeField(body []byte) (kb.Value, int, error) {
	if len(body) > 0 && kb.ValueKind(body[0]) == kb.KindNumber {
		return decodeValueKey(body)
	}
	// Frame the field (payload up to its unescaped terminator) so the
	// raw bytes can key the intern table. The scan starts past the kind
	// tag — KindTerm's tag is 0x00 and must not read as a terminator.
	end := 1
	for {
		i := end
		for i < len(body) && body[i] != 0 {
			i++
		}
		if i >= len(body) {
			return decodeValueKey(body) // let the decoder report the error
		}
		if i+1 < len(body) && body[i+1] == 0xff {
			end = i + 2
			continue
		}
		end = i + 1
		break
	}
	if v, ok := sr.intern[string(body[:end])]; ok {
		return v, end, nil
	}
	v, consumed, err := decodeValueKey(body[:end])
	if err != nil {
		return v, consumed, err
	}
	if len(sr.intern) < spillInternCap {
		sr.intern[string(body[:end])] = v
	}
	return v, end, nil
}

// replay streams every record of the run through fn — reader() in loop
// form. The tuple handed to fn is freshly decoded from arena memory and
// owned by the callee.
func (r *spillRun) replay(width int, arena *tupleArena, fn func(t tuple, h uint64) error) error {
	sr, err := r.reader()
	if err != nil {
		return err
	}
	for {
		t, h, ok, err := sr.next(width, arena)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(t, h); err != nil {
			return err
		}
	}
}

// close releases the run's fd and its accounted write buffer; it is
// idempotent (the split path closes parents eagerly, the defers sweep).
func (r *spillRun) close() {
	if r == nil || r.closed {
		return
	}
	r.closed = true
	r.f.Close()
	r.bud.Release(spillBufBytes)
}

// spillPart is one join partition's spill state. A partition first
// overflows its *probe* side (pending batches buffered while the build
// side is still streaming go to a probe run; the in-memory build table
// survives), and degrades fully to a grace-hash join only when the build
// table itself cannot reserve — then both sides land in runs and join()
// completes the partition from disk within budget (graceJoin).
type spillPart struct {
	dir   string
	width int
	// bud is the partition's spillable reservation (build chunks); io is
	// the root budget, charged for the fixed run write buffers so they
	// do not crowd the chunk reservations out of the partition's share.
	bud *mem.Budget
	io  *mem.Budget

	build *spillRun // non-nil once the build side degraded
	probe *spillRun // probe overflow (may exist with an in-memory build)
	runs  int       // runs created, including recursion (Stats.SpillRuns)
	bytes int64     // record bytes written across runs (Stats.SpilledBytes)
}

func (sp *spillPart) newRun() (*spillRun, error) {
	r, err := newSpillRun(sp.dir, sp.io)
	if err == nil {
		sp.runs++
		r.acct = &sp.bytes
	}
	return r, err
}

func (sp *spillPart) ensureProbe() error {
	if sp.probe != nil {
		return nil
	}
	r, err := sp.newRun()
	sp.probe = r
	return err
}

func (sp *spillPart) ensureBuild() error {
	if sp.build != nil {
		return nil
	}
	r, err := sp.newRun()
	sp.build = r
	return err
}

func (sp *spillPart) close() {
	sp.build.close()
	sp.probe.close()
}

// join completes a fully-degraded partition: both sides live in runs.
// onMatches is invoked once per probe tuple that has at least one
// key-equal build match (the probe tuple is owned by the callee, so the
// caller may overlay its first match in place, like the live path).
func (sp *spillPart) join(stp *planStep, onMatches func(l tuple, h uint64, rs []tuple)) error {
	defer func() {
		sp.build.close()
		sp.probe.close()
		sp.build, sp.probe = nil, nil
	}()
	return sp.graceJoin(stp, 0, sp.build, sp.probe, onMatches)
}

// graceJoin joins one (build, probe) run pair within budget. The
// workhorse is the chunked hybrid join: the build run is read once in
// reservation-sized chunks and the probe run re-streamed against each
// chunk — one build pass, few probe passes, no re-writing. Only when
// the build side is so much larger than the reservation that the probe
// would be re-read many times over does it re-partition both runs by
// the next hash bits and recurse (each sub-pair then joins within
// budget).
func (sp *spillPart) graceJoin(stp *planStep, level int, build, probe *spillRun,
	onMatches func(l tuple, h uint64, rs []tuple)) error {
	// The split decision estimates how many probe passes chunking would
	// pay. Chunks reserve from the query root, so the proxy for a
	// chunk's capacity is half the root cap (the spillable-pool share of
	// the budget; the streaming-phase child is unlimited and cannot
	// gauge this). A build run needing more than maxChunkPasses such
	// chunks re-partitions by hash bits instead.
	if lim := sp.io.Limit() / 2; level < maxSpillLevel && lim > 0 &&
		build.tuples > minSplitTuples &&
		tupleCost(sp.width)*int64(build.tuples) > maxChunkPasses*lim {
		return sp.splitAndRecurse(stp, level, build, probe, onMatches)
	}
	return sp.chunkedJoin(stp, build, probe, onMatches)
}

// chunkedJoin is the leaf grace join: stream the build run once,
// accumulating an in-memory table until the reservation runs out, probe
// the whole probe run against that chunk, release, and continue with
// the next chunk. Every (probe, build) match pair is emitted exactly
// once — chunk boundaries partition the build side, so the emitted row
// set is independent of where the budget happened to cut.
//
// Chunks reserve against the query root (sp.io), not the partition's
// streaming share: the per-partition child limit exists to stop any one
// partition buffering unboundedly while every stage is producing, but at
// finish time the real constraint is the memory actually free under the
// query cap — typically far more than one share, so most joins complete
// in a single probe pass. Concurrent finishes stay safe: the root cap
// bounds them jointly, and a crowded root just means smaller chunks.
func (sp *spillPart) chunkedJoin(stp *planStep, build, probe *spillRun,
	onMatches func(l tuple, h uint64, rs []tuple)) error {
	tc := tupleCost(sp.width)
	br, err := build.reader()
	if err != nil {
		return err
	}
	var carry tuple
	var carryH uint64
	haveCarry := false
	done := false
	var matches []tuple
	for !done || haveCarry {
		arena := &tupleArena{width: sp.width}
		table := make(map[uint64][]tuple)
		var charged int64
		n := 0
		if haveCarry {
			// The tuple that closed the previous chunk opens this one.
			sp.io.MustReserve(tc)
			charged += tc
			table[carryH] = append(table[carryH], carry)
			haveCarry = false
			n++
		}
		for !done {
			t, h, ok, rerr := br.next(sp.width, arena)
			if rerr != nil {
				sp.io.Release(charged)
				return rerr
			}
			if !ok {
				done = true
				break
			}
			if !sp.io.Reserve(tc) {
				if n < minChunkTuples {
					// Progress guarantee: a chunk always reaches the
					// floor, accounted past the limit if need be.
					sp.io.MustReserve(tc)
				} else {
					carry, carryH, haveCarry = t, h, true
					break
				}
			}
			charged += tc
			table[h] = append(table[h], t)
			n++
		}
		if n > 0 {
			probeArena := &tupleArena{width: sp.width}
			err := probe.replay(sp.width, probeArena, func(l tuple, h uint64) error {
				matches = matches[:0]
				for _, r := range table[h] {
					if keySlotsEqual(l, r, stp.keySlots) {
						matches = append(matches, r)
					}
				}
				if len(matches) > 0 {
					onMatches(l, h, matches)
				}
				return nil
			})
			if err != nil {
				sp.io.Release(charged)
				return err
			}
		}
		sp.io.Release(charged)
	}
	return nil
}

// maxChunkPasses bounds how many probe passes the chunked join may pay
// before re-partitioning becomes the better trade.
const maxChunkPasses = 6

// splitAndRecurse streams both runs into spillFanout sub-run pairs routed
// by the next hash bits, closes the parents, and joins each pair in turn.
func (sp *spillPart) splitAndRecurse(stp *planStep, level int, build, probe *spillRun,
	onMatches func(l tuple, h uint64, rs []tuple)) error {
	var subBuild, subProbe [spillFanout]*spillRun
	defer func() {
		for i := 0; i < spillFanout; i++ {
			subBuild[i].close()
			subProbe[i].close()
		}
	}()
	for i := 0; i < spillFanout; i++ {
		var err error
		if subBuild[i], err = sp.newRun(); err != nil {
			return err
		}
		if subProbe[i], err = sp.newRun(); err != nil {
			return err
		}
	}
	arena := &tupleArena{width: sp.width}
	if err := build.replay(sp.width, arena, func(t tuple, h uint64) error {
		return subBuild[spillSub(h, level)].add(t, h)
	}); err != nil {
		return err
	}
	if err := probe.replay(sp.width, arena, func(t tuple, h uint64) error {
		return subProbe[spillSub(h, level)].add(t, h)
	}); err != nil {
		return err
	}
	// The parents' bytes are no longer needed; release their fds before
	// descending so the open-file high-water stays at one lineage.
	if build != sp.build {
		build.close()
	}
	if probe != sp.probe {
		probe.close()
	}
	for i := 0; i < spillFanout; i++ {
		if subBuild[i].tuples == 0 || subProbe[i].tuples == 0 {
			continue // nothing can join in this sub-pair
		}
		if err := sp.graceJoin(stp, level+1, subBuild[i], subProbe[i], onMatches); err != nil {
			return err
		}
	}
	return nil
}
