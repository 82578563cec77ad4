package query

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/kb"
	"repro/internal/query/mem"
)

// This file is the grace-hash spilling machinery of the memory-governed
// pipeline (batchpipe.go). A join partition whose build store (or pending
// probe queue) cannot reserve its next batch from the query Budget
// degrades here: build and probe rows are written to temp-file runs and
// the join completes partition-by-partition within budget — recursively
// sub-partitioned by further hash bits when a run still does not fit.
//
// Rows stay column batches on disk too: a run encodes each record
// straight from a colBatch row and replays its records back into a batch
// checked out of the query's batchAlloc, so every completion path builds
// the live path's buildStore and runs its match loop (batchOutput.probe).
// A record is the row's key hash plus only the side's bound slots, each
// in the framing-safe rowkey encoding (appendValueKey/decodeValueKey), so
// spilled rows round-trip kind-strictly: a spilled row can never collapse
// with, or diverge from, its in-memory twin — the tiny-budget determinism
// suite forces every join to spill and still demands byte-identical rows.

const (
	// valueBytes is the accounting cost of one kb.Value slot (struct
	// size; string payloads are shared, not copied, so they are not
	// charged per row).
	valueBytes = 32
	// spillFanout is how many hash sub-partitions one recursion level
	// splits a too-big run into.
	spillFanout = 8
	// maxSpillLevel bounds the recursion; a run that still dwarfs its
	// reservation after maxSpillLevel splits (every row sharing one join
	// key, say) falls to the chunked join, which degrades gracefully
	// (more probe passes) instead of dividing further.
	maxSpillLevel = 6
	// minSplitTuples is the smallest build run worth re-partitioning:
	// below it the chunked join handles the whole run — 16 more runs
	// cannot beat one or two probe passes, and the floor keeps a
	// degenerate cap from exploding into thousands of single-digit-row
	// runs.
	minSplitTuples = 256
	// minChunkTuples floors a chunk's size even when the budget is
	// exhausted (accounted past the limit): each chunk costs a full
	// probe-run pass, so unbounded shrinking would turn a crowded (or
	// adversarially tiny) cap into O(build × probe) disk replays. The
	// floor caps the pass count at build.rows/minChunkTuples for a
	// ~30KB bounded overshoot per finishing partition.
	minChunkTuples = 128
	// spillBufBytes is the buffered-writer size per open run, charged as
	// fixed working state.
	spillBufBytes = 8 << 10
)

// tupleCost is the accounting cost of retaining one width-slot row.
func tupleCost(width int) int64 {
	return 24 + int64(width)*valueBytes
}

// spillSub routes a join-key hash to a recursion-level sub-partition,
// consuming hash bits disjoint from the partition routing (h % parts
// uses the low bits; levels walk upward from bit 16).
func spillSub(h uint64, level int) int {
	return int((h >> (16 + 3*uint(level))) & (spillFanout - 1))
}

// spillRun is one temp-file run of (hash, row) records. The file is
// unlinked at creation, so runs can never outlive the process whatever
// happens; records are length-prefixed, with the row's slots encoded by
// appendValueKey — the same kind-tagged framing the joins key on.
type spillRun struct {
	f   *os.File
	w   *bufio.Writer
	bud *mem.Budget
	// slots is the run's slot list: the slots bound in the rows of its
	// side, the only ones a record carries.
	slots  []int
	rows   int
	closed bool
	buf    []byte // reusable record scratch
	acct   *int64 // optional byte accumulator (Stats.SpilledBytes)
}

// newSpillRun creates an anonymous run in dir ("" = os.TempDir) for rows
// bound on slots, charging its write buffer to the budget as fixed
// working state.
func newSpillRun(dir string, bud *mem.Budget, slots []int) (*spillRun, error) {
	f, err := os.CreateTemp(dir, "onion-spill-*")
	if err != nil {
		return nil, fmt.Errorf("query: spill: %w", err)
	}
	// The fd keeps the run alive; the name never needs to.
	os.Remove(f.Name())
	bud.MustReserve(spillBufBytes)
	return &spillRun{f: f, w: bufio.NewWriterSize(f, spillBufBytes), bud: bud, slots: slots}, nil
}

// add appends row i of b as one record: its hash, then the run's slots.
// Nothing of b is retained.
func (r *spillRun) add(b *colBatch, i int) error {
	rec := binary.BigEndian.AppendUint64(r.buf[:0], b.hashes[i])
	for _, s := range r.slots {
		rec = appendValueKey(rec, b.cols[s][i])
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
	r.rows++
	return nil
}

// addRows appends every row of b.
func (r *spillRun) addRows(b *colBatch) error {
	for i := 0; i < b.n; i++ {
		if err := r.add(b, i); err != nil {
			return err
		}
	}
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
		remaining: r.rows, intern: make(map[string]kb.Value)}, nil
}

// read decodes the run's next records into b from row 0 until b is full
// or the run ends, and reports whether it decoded any. Only the run's
// slots are written: every other column of b is left as it was.
func (sr *spillReader) read(b *colBatch) (bool, error) {
	b.n, b.sel = 0, nil
	for sr.remaining > 0 && !b.full() {
		if err := sr.next(b); err != nil {
			return false, fmt.Errorf("query: spill read: %w", err)
		}
	}
	return b.n > 0, nil
}

// next decodes one record into row b.n of b.
func (sr *spillReader) next(b *colBatch) error {
	sr.remaining--
	n, err := binary.ReadUvarint(sr.br)
	if err != nil {
		return err
	}
	if uint64(cap(sr.rec)) < n {
		sr.rec = make([]byte, n)
	}
	rec := sr.rec[:n]
	if _, err := io.ReadFull(sr.br, rec); err != nil {
		return err
	}
	if len(rec) < 8 {
		return errors.New("record truncated")
	}
	j := b.n
	b.hashes[j] = binary.BigEndian.Uint64(rec[:8])
	body := rec[8:]
	for _, s := range sr.run.slots {
		v, consumed, err := sr.decodeField(body)
		if err != nil {
			return fmt.Errorf("slot %d: %w", s, err)
		}
		b.cols[s][j] = v
		body = body[consumed:]
	}
	if len(body) != 0 {
		return fmt.Errorf("record has %d trailing bytes", len(body))
	}
	b.n++
	return nil
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

// replay streams the run back in write order, a batch at a time, through
// fn. Every batch is decoded into one buffer checked out of alloc — so
// the decode memory is charged to the query budget — and is valid only
// until fn returns.
func (r *spillRun) replay(alloc *batchAlloc, fn func(*colBatch) error) error {
	sr, err := r.reader()
	if err != nil {
		return err
	}
	b := alloc.get()
	defer alloc.put(b)
	for {
		ok, err := sr.read(b)
		if err != nil || !ok {
			return err
		}
		if err := fn(b); err != nil {
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
// side is still streaming go to a probe run; the in-memory build store
// survives), and degrades fully to a grace-hash join only when the build
// store itself cannot reserve — then both sides land in runs and join()
// completes the partition from disk within budget (graceJoin).
type spillPart struct {
	dir string
	// alloc checks out the decode batches; its budget is the query root,
	// which also carries the run write buffers and the grace chunks'
	// reservations.
	alloc *batchAlloc
	// buildSlots and probeSlots are each side's run slot list.
	buildSlots, probeSlots []int

	build *spillRun // non-nil once the build side degraded
	probe *spillRun // probe overflow (may exist with an in-memory build)
	runs  int       // runs created, including recursion (Stats.SpillRuns)
	bytes int64     // record bytes written across runs (Stats.SpilledBytes)
}

func (sp *spillPart) newRun(slots []int) (*spillRun, error) {
	r, err := newSpillRun(sp.dir, sp.alloc.bud, slots)
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
	r, err := sp.newRun(sp.probeSlots)
	sp.probe = r
	return err
}

func (sp *spillPart) ensureBuild() error {
	if sp.build != nil {
		return nil
	}
	r, err := sp.newRun(sp.buildSlots)
	sp.build = r
	return err
}

func (sp *spillPart) close() {
	sp.build.close()
	sp.probe.close()
}

// join completes a fully-degraded partition: both sides live in runs.
// probe is handed every replayed probe batch together with the build
// store of the chunk it is joined against (batchOutput.probe).
func (sp *spillPart) join(stp *planStep, probe func(*colBatch, *buildStore)) error {
	defer func() {
		sp.build.close()
		sp.probe.close()
		sp.build, sp.probe = nil, nil
	}()
	return sp.graceJoin(stp, 0, sp.build, sp.probe, probe)
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
	probeFn func(*colBatch, *buildStore)) error {
	// The split decision estimates how many probe passes chunking would
	// pay. Chunks reserve from the query root, so the proxy for a
	// chunk's capacity is half the root cap (the spillable-pool share of
	// the budget; the streaming-phase child is unlimited and cannot
	// gauge this). A build run needing more than maxChunkPasses such
	// chunks re-partitions by hash bits instead.
	if lim := sp.alloc.bud.Limit() / 2; level < maxSpillLevel && lim > 0 &&
		build.rows > minSplitTuples &&
		tupleCost(sp.alloc.width)*int64(build.rows) > maxChunkPasses*lim {
		return sp.splitAndRecurse(stp, level, build, probe, probeFn)
	}
	return sp.chunkedJoin(stp, build, probe, probeFn)
}

// chunkedJoin is the leaf grace join: stream the build run once,
// appending decoded batches to a build store until the reservation runs
// out, probe the whole probe run against that chunk, release, and
// continue with the next chunk. Every (probe, build) match pair is
// emitted exactly once — chunk boundaries partition the build side, so
// the emitted row set is independent of where the budget happened to
// cut.
//
// Chunks reserve against the query root, not the partition's streaming
// share: the per-partition child limit exists to stop any one partition
// buffering unboundedly while every stage is producing, but at finish
// time the real constraint is the memory actually free under the query
// cap — typically far more than one share, so most joins complete in a
// single probe pass. Concurrent finishes stay safe: the root cap bounds
// them jointly, and a crowded root just means smaller chunks.
func (sp *spillPart) chunkedJoin(stp *planStep, build, probe *spillRun,
	probeFn func(*colBatch, *buildStore)) error {
	root := sp.alloc.bud
	tc := tupleCost(sp.alloc.width)
	br, err := build.reader()
	if err != nil {
		return err
	}
	b := sp.alloc.get()
	defer sp.alloc.put(b)
	carry := false // b holds the batch that closed the previous chunk
	for {
		bs := newBuildStore(stp, sp.alloc.width)
		var charged int64
		for {
			if !carry {
				ok, err := br.read(b)
				if err != nil {
					bs.release()
					root.Release(charged)
					return err
				}
				if !ok {
					break
				}
			}
			cost := int64(b.n) * tc
			if !root.Reserve(cost) {
				if bs.rows() >= minChunkTuples {
					carry = true // b opens the next chunk
					break
				}
				// Progress guarantee: a chunk always reaches the floor,
				// accounted past the limit if need be.
				root.MustReserve(cost)
			}
			carry = false
			charged += cost
			bs.appendBatch(b)
		}
		if bs.rows() > 0 {
			err = probe.replay(sp.alloc, func(pb *colBatch) error {
				probeFn(pb, bs)
				return nil
			})
		}
		bs.release()
		root.Release(charged)
		if err != nil || !carry {
			return err
		}
	}
}

// maxChunkPasses bounds how many probe passes the chunked join may pay
// before re-partitioning becomes the better trade.
const maxChunkPasses = 6

// splitAndRecurse streams both runs into spillFanout sub-run pairs routed
// by the next hash bits, closes the parents, and joins each pair in turn.
func (sp *spillPart) splitAndRecurse(stp *planStep, level int, build, probe *spillRun,
	probeFn func(*colBatch, *buildStore)) error {
	var subBuild, subProbe [spillFanout]*spillRun
	defer func() {
		for i := 0; i < spillFanout; i++ {
			subBuild[i].close()
			subProbe[i].close()
		}
	}()
	for i := 0; i < spillFanout; i++ {
		var err error
		if subBuild[i], err = sp.newRun(build.slots); err != nil {
			return err
		}
		if subProbe[i], err = sp.newRun(probe.slots); err != nil {
			return err
		}
	}
	scatter := func(from *spillRun, to *[spillFanout]*spillRun) error {
		return from.replay(sp.alloc, func(b *colBatch) error {
			for i := 0; i < b.n; i++ {
				if err := to[spillSub(b.hashes[i], level)].add(b, i); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := scatter(build, &subBuild); err != nil {
		return err
	}
	if err := scatter(probe, &subProbe); err != nil {
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
		if subBuild[i].rows == 0 || subProbe[i].rows == 0 {
			continue // nothing can join in this sub-pair
		}
		if err := sp.graceJoin(stp, level+1, subBuild[i], subProbe[i], probeFn); err != nil {
			return err
		}
	}
	return nil
}
