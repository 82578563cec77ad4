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
	"repro/internal/rowcodec"
)

// This file is the grace-hash spilling machinery of the memory-governed
// pipeline (batchpipe.go), and the one run file behind every spill. A
// join partition whose pending probe queue or build store cannot reserve
// its next batch from the query Budget degrades here: the rows that do
// not fit are written to temp-file runs, and at stage end the probe run
// replays through the resident build store and, when the build side
// overflowed too, the chunked grace join completes the partition from
// disk within budget.
//
// Rows stay column batches on disk too: a run encodes each record
// straight from a colBatch row and replays its records back into a batch
// checked out of the query's batchAlloc, so every completion path builds
// the live path's buildStore and runs its match loop (batchOutput.probe).
// A record is the row's key hash plus only the side's bound slots, each
// in the framing-safe row-key encoding (rowcodec.AppendValue, inverted by
// rowcodec.DecodeValue), so spilled rows round-trip kind-strictly: a
// spilled row can never collapse with, or diverge from, its in-memory
// twin — the tiny-budget determinism suite forces every join to spill
// and still demands byte-identical rows.

const (
	// valueBytes is the accounting cost of one kb.Value slot (struct
	// size; string payloads are shared, not copied, so they are not
	// charged per row).
	valueBytes = 32
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

// runFile is one temp-file run of uvarint-length-prefixed records, the
// file under both join runs (spillRun) and projection runs (projspill.go).
// The file is unlinked at creation, so runs can never outlive the process
// whatever happens, and the write buffer is charged to the budget as
// fixed working state until close.
type runFile struct {
	f   *os.File
	w   *bufio.Writer
	bud *mem.Budget
	n   int // records written
	// longest is the longest record written: a reader refuses any length
	// prefix beyond it, so a corrupt prefix cannot size its buffer.
	longest int
	bytes   int64 // bytes written, framing included (Stats.SpilledBytes)
	closed  bool
}

// newRunFile creates an anonymous run in dir ("" = os.TempDir).
func newRunFile(dir string, bud *mem.Budget) (*runFile, error) {
	f, err := os.CreateTemp(dir, "onion-spill-*")
	if err != nil {
		return nil, fmt.Errorf("query: spill: %w", err)
	}
	// The fd keeps the run alive; the name never needs to.
	os.Remove(f.Name())
	bud.MustReserve(spillBufBytes)
	return &runFile{f: f, w: bufio.NewWriterSize(f, spillBufBytes), bud: bud}, nil
}

// write appends rec as one record. Nothing of rec is retained.
func (r *runFile) write(rec []byte) error {
	var lenb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenb[:], uint64(len(rec)))
	if _, err := r.w.Write(lenb[:n]); err != nil {
		return fmt.Errorf("query: spill write: %w", err)
	}
	if _, err := r.w.Write(rec); err != nil {
		return fmt.Errorf("query: spill write: %w", err)
	}
	r.n++
	r.longest = max(r.longest, len(rec))
	r.bytes += int64(n + len(rec))
	return nil
}

// records flushes the run and opens a sequential reader at its start.
// One reader at a time per run (it owns the file offset); the run stays
// re-readable.
func (r *runFile) records() (*runReader, error) {
	if err := r.w.Flush(); err != nil {
		return nil, fmt.Errorf("query: spill flush: %w", err)
	}
	if _, err := r.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("query: spill seek: %w", err)
	}
	return &runReader{br: bufio.NewReaderSize(r.f, spillBufBytes),
		remaining: r.n, rec: make([]byte, 0, r.longest)}, nil
}

// close releases the run's fd and its accounted write buffer. It is
// idempotent, so no caller can release the buffer's charge twice.
func (r *runFile) close() {
	if r.closed {
		return
	}
	r.closed = true
	r.f.Close()
	r.bud.Release(spillBufBytes)
}

// runReader streams a run's records back in write order.
type runReader struct {
	br        *bufio.Reader
	remaining int
	rec       []byte // capacity: the run's longest record
}

// next returns the run's next record, valid until the following call,
// or false once every record written has been read. The record is never
// nil, so an empty record still reads as present.
func (rr *runReader) next() ([]byte, bool, error) {
	if rr.remaining == 0 {
		return nil, false, nil
	}
	rr.remaining--
	n, err := binary.ReadUvarint(rr.br)
	if err != nil {
		return nil, false, fmt.Errorf("query: spill read: %w", err)
	}
	if n > uint64(cap(rr.rec)) {
		return nil, false, fmt.Errorf("query: spill read: record length %d exceeds the run's longest record (%d bytes)", n, cap(rr.rec))
	}
	rec := rr.rec[:n]
	if _, err := io.ReadFull(rr.br, rec); err != nil {
		return nil, false, fmt.Errorf("query: spill read: %w", err)
	}
	return rec, true, nil
}

// spillRun is one join run of (hash, row) records, the row's slots
// encoded by rowcodec.AppendValue — the same kind-tagged framing the
// joins key on.
type spillRun struct {
	*runFile
	// slots is the run's slot list: the slots bound in the rows of its
	// side, the only ones a record carries.
	slots []int
	buf   []byte // reusable record scratch
}

// newSpillRun creates an anonymous run in dir ("" = os.TempDir) for rows
// bound on slots.
func newSpillRun(dir string, bud *mem.Budget, slots []int) (*spillRun, error) {
	f, err := newRunFile(dir, bud)
	if err != nil {
		return nil, err
	}
	return &spillRun{runFile: f, slots: slots}, nil
}

// add appends row i of b as one record: its hash, then the run's slots.
// Nothing of b is retained.
func (r *spillRun) add(b *colBatch, i int) error {
	rec := binary.BigEndian.AppendUint64(r.buf[:0], b.hashes[i])
	for _, s := range r.slots {
		rec = rowcodec.AppendValue(rec, b.cols[s][i])
	}
	r.buf = rec
	return r.write(rec)
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

// spillReader decodes a join run's records back into batches, in write
// order. The intern table reuses decoded values for repeated field
// encodings — run payloads repeat heavily (every join key appears once
// per match), and interning turns the dominant decode cost (string
// allocation plus the GC traffic it feeds) into a map probe on the raw
// bytes.
type spillReader struct {
	*runReader
	slots  []int
	intern map[string]kb.Value
}

// reader opens a decoding reader at the run's start.
func (r *spillRun) reader() (*spillReader, error) {
	rr, err := r.records()
	if err != nil {
		return nil, err
	}
	return &spillReader{runReader: rr, slots: r.slots, intern: make(map[string]kb.Value)}, nil
}

// read decodes the run's next records into b from row 0 until b is full
// or the run ends, and reports whether it decoded any. Only the run's
// slots are written: every other column of b is left as it was.
func (sr *spillReader) read(b *colBatch) (bool, error) {
	b.n, b.sel = 0, nil
	for !b.full() {
		rec, ok, err := sr.next()
		if err != nil {
			return false, err
		}
		if !ok {
			break
		}
		if err := sr.decode(rec, b); err != nil {
			return false, fmt.Errorf("query: spill read: %w", err)
		}
	}
	return b.n > 0, nil
}

// decode decodes one record into row b.n of b.
func (sr *spillReader) decode(rec []byte, b *colBatch) error {
	if len(rec) < 8 {
		return errors.New("record truncated")
	}
	j := b.n
	b.hashes[j] = binary.BigEndian.Uint64(rec[:8])
	body := rec[8:]
	for _, s := range sr.slots {
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
		return rowcodec.DecodeValue(body)
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
			return rowcodec.DecodeValue(body) // let the decoder report the error
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
	v, consumed, err := rowcodec.DecodeValue(body[:end])
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

// spillPart is one join partition's spill state, a hybrid grace join
// whose two runs fill in either order. Probe rows that cannot stay
// resident — pending batches the pool refused, and once the build side
// overflowed, every probe row — go to the probe run. Build rows the store
// cannot reserve go to the build run; the rows already reserved stay
// resident. At stage end the probe run replays through the resident
// store, and a build run completes by join(). A probe overflow alone is
// the case whose build run is empty.
type spillPart struct {
	dir string
	// alloc checks out the decode batches; its budget is the query root,
	// which also carries the run write buffers and the grace chunks'
	// reservations.
	alloc *batchAlloc
	// buildSlots and probeSlots are each side's run slot list.
	buildSlots, probeSlots []int

	build *spillRun // non-nil once the build side overflowed
	probe *spillRun // non-nil once any probe row spilled
}

func (sp *spillPart) ensureProbe() error {
	if sp.probe != nil {
		return nil
	}
	var err error
	sp.probe, err = newSpillRun(sp.dir, sp.alloc.bud, sp.probeSlots)
	return err
}

func (sp *spillPart) ensureBuild() error {
	if sp.build != nil {
		return nil
	}
	var err error
	sp.build, err = newSpillRun(sp.dir, sp.alloc.bud, sp.buildSlots)
	return err
}

// close closes both runs; it is idempotent.
func (sp *spillPart) close() {
	for _, r := range [2]*spillRun{sp.build, sp.probe} {
		if r != nil {
			r.close()
		}
	}
}

// totals reports the runs opened and the record bytes written across
// them (Stats.SpillRuns, Stats.SpilledBytes).
func (sp *spillPart) totals() (runs int, bytes int64) {
	for _, r := range [2]*spillRun{sp.build, sp.probe} {
		if r != nil {
			runs++
			bytes += r.bytes
		}
	}
	return runs, bytes
}

// join is the grace join of the build run against the probe run: stream
// the build run once, appending decoded batches to a build store until
// the reservation runs out, probe the whole probe run against that chunk,
// release, and continue with the next chunk. Every (probe, build) match
// pair is emitted exactly once — chunk boundaries partition the build
// side, so the emitted row set is independent of where the budget
// happened to cut. probe is handed every replayed probe batch together
// with the chunk's build store (batchOutput.probe).
//
// Chunks reserve against the query root, not the partition's streaming
// share: the per-partition child limit exists to stop any one partition
// buffering unboundedly while every stage is producing, but at finish
// time the real constraint is the memory actually free under the query
// cap — typically far more than one share, so most joins complete in a
// single probe pass. Concurrent finishes stay safe: the root cap bounds
// them jointly, and a crowded root just means smaller chunks, never
// below minChunkTuples.
func (sp *spillPart) join(stp *planStep, probe func(*colBatch, *buildStore)) error {
	root := sp.alloc.bud
	tc := tupleCost(sp.alloc.width)
	br, err := sp.build.reader()
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
			err = sp.probe.replay(sp.alloc, func(pb *colBatch) error {
				probe(pb, bs)
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
