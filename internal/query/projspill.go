package query

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"repro/internal/kb"
	"repro/internal/rowcodec"
)

// This file makes the last stage's streaming projection (stageProj,
// pipeline.go) spillable under Options{MemoryLimit}. The projection's
// dedup set is the one retention the memory-governed pipeline could not
// previously trade for disk: a query whose *distinct answer set* alone
// exceeded the cap blew past it via MustReserve. Now the set reserves
// from the shared spillable pool in chunk-sized grants; when a grant is
// refused the buffered rows rotate to a sorted run (spill.go's runFile)
// — the row key doubles as the record (it IS the row's full encoding,
// decodable cell by cell) — and finish() merge-dedups the sorted runs
// with the sorted in-memory remainder back into the partition's
// deterministic row order. Rows that reach the caller are charged to the
// root as before (they are the answer); only the transient dedup state
// spills.
//
// A duplicate row can land in two runs (the dedup map forgets spilled
// keys), but a duplicated key always carries a cell-identical row —
// the key is the row's encoding — so the merge's first-wins dedup
// yields exactly the rows an unbounded run yields, byte-identical.

const (
	// projChunkBytes is the granularity of the projection's spillable
	// reservations: row charges consume grant headroom, so the pool sees
	// one Reserve per chunk instead of one per distinct row.
	projChunkBytes = 16 << 10
	// projRotateMinBytes is the smallest buffered set worth a sorted
	// run. Below it a refused grant holds the rows anyway (MustReserve)
	// — a bounded overshoot, at most this many bytes per last-stage
	// partition (cf. minChunkTuples) — so a crowded pool cannot explode
	// the projection into per-row runs.
	projRotateMinBytes = 64 << 10
)

// projRowCost is the accounted retention of one distinct projected row:
// its key string (map entry + keyedRow copy), the keyedRow header and
// the row's value cells.
func projRowCost(key string, selN int) int64 {
	return 2*int64(len(key)) + 24 + int64(selN)*valueBytes
}

// ensure charges one distinct row's retention. Without a spill pool
// (unbounded executions) this is the historical root MustReserve; with
// one, charges consume chunk-granted headroom, a refused grant rotates
// the buffered set to a sorted run, and a pool exhausted by sibling
// partitions degrades to the bounded projRotateMinBytes overshoot.
func (pp *stageProj) ensure(n int64) {
	if pp.spill == nil {
		pp.bud.MustReserve(n)
		return
	}
	if pp.err != nil {
		return
	}
	if pp.headroom >= n {
		pp.headroom -= n
		return
	}
	need := int64(projChunkBytes)
	if n > need {
		need = n
	}
	if pp.spill.Reserve(need) {
		pp.charged += need
		pp.headroom += need - n
		return
	}
	if pp.charged+n >= projRotateMinBytes {
		pp.rotate()
		if pp.err != nil {
			return
		}
		if pp.spill.Reserve(need) {
			pp.charged += need
			pp.headroom += need - n
			return
		}
	}
	// Pool exhausted with too little buffered to trade for disk: hold
	// the row anyway — bounded overshoot, the projection always makes
	// progress.
	pp.spill.MustReserve(n)
	pp.charged += n
}

// rotate writes the buffered dedup set to a sorted run (one record per
// key) and resets it, releasing its pool reservation. The dedup map
// forgets the spilled keys; the merge at finish() re-drops any
// re-projected duplicates.
func (pp *stageProj) rotate() {
	slices.SortFunc(pp.rows, func(a, b keyedRow) int { return strings.Compare(a.key, b.key) })
	r, err := newRunFile(pp.dir, pp.bud)
	if err != nil {
		pp.err = err
		return
	}
	pp.runs = append(pp.runs, r)
	var rec []byte
	for i := range pp.rows {
		rec = append(rec[:0], pp.rows[i].key...)
		if err := r.write(rec); err != nil {
			pp.err = err
			break
		}
	}
	clear(pp.keys)
	pp.rows = pp.rows[:0]
	pp.spill.Release(pp.charged)
	pp.charged, pp.headroom = 0, 0
}

// finish returns the partition's deduplicated rows in ascending key
// order, merging any spilled runs back. The returned rows' retention is
// charged to the root either way — they are the answer; only the dedup
// state was spillable.
func (pp *stageProj) finish() ([]keyedRow, error) {
	clear(pp.keys)
	projKeysPool.Put(pp.keys)
	pp.keys = nil
	if pp.err != nil {
		pp.cleanup()
		return nil, pp.err
	}
	// Keys are unique within the buffered set (deduped on add), so the
	// unstable slices sort is deterministic and avoids sort.Slice's
	// reflection swaps on the hot final stage.
	slices.SortFunc(pp.rows, func(a, b keyedRow) int { return strings.Compare(a.key, b.key) })
	if pp.spill == nil {
		return pp.rows, nil
	}
	// Hand the retention from the spillable pool back before charging
	// the root for the final rows, so the two never stack in the peak.
	pp.spill.Release(pp.charged)
	pp.charged, pp.headroom = 0, 0
	if len(pp.runs) == 0 {
		for i := range pp.rows {
			pp.bud.MustReserve(projRowCost(pp.rows[i].key, len(pp.sel)))
		}
		return pp.rows, nil
	}
	rows, err := pp.mergeRuns()
	pp.cleanup()
	return rows, err
}

// cleanup closes any runs and drops remaining pool reservations (the
// error path's sweep; the success path released them in finish).
func (pp *stageProj) cleanup() {
	for _, r := range pp.runs {
		r.close()
	}
	pp.spill.Release(pp.charged)
	pp.charged, pp.headroom = 0, 0
}

// decodeProjKey reconstructs a projected row from its key — the key is
// rowcodec.AppendValue over the SELECT cells, so it decodes cell by cell.
func decodeProjKey(key []byte, selN int) ([]kb.Value, error) {
	//lint:onion-ignore the caller (mergeRuns) charges projRowCost to the root for every merged row it retains; decode itself holds nothing past return
	row := make([]kb.Value, selN)
	body := key
	for k := 0; k < selN; k++ {
		v, consumed, err := rowcodec.DecodeValue(body)
		if err != nil {
			return nil, fmt.Errorf("query: projection spill cell %d: %w", k, err)
		}
		row[k] = v
		body = body[consumed:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("query: projection spill record has %d trailing bytes", len(body))
	}
	return row, nil
}

// cmpKeyBytes compares a run head against a string key without
// materialising either.
func cmpKeyBytes(b []byte, s string) int {
	n := min(len(b), len(s))
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

// mergeRuns merge-dedups the sorted runs with the sorted in-memory
// remainder (pp.rows): a linear head scan — run counts are small, one
// per rotation — emitting each distinct key once, decoding spilled rows
// from their keys and charging every surviving row to the root.
func (pp *stageProj) mergeRuns() ([]keyedRow, error) {
	readers := make([]*runReader, len(pp.runs))
	heads := make([][]byte, len(pp.runs)) // nil once a run is exhausted
	for i, r := range pp.runs {
		rr, err := r.records()
		if err != nil {
			return nil, err
		}
		readers[i] = rr
		if heads[i], _, err = rr.next(); err != nil {
			return nil, err
		}
	}
	var out []keyedRow
	ri := 0 // next in-memory remainder row
	lastKey, have := "", false
	for {
		best := -1 // run with the smallest head
		for i, h := range heads {
			if h == nil {
				continue
			}
			if best == -1 || bytes.Compare(h, heads[best]) < 0 {
				best = i
			}
		}
		fromRem := best == -1 ||
			(ri < len(pp.rows) && cmpKeyBytes(heads[best], pp.rows[ri].key) >= 0)
		if best == -1 && ri >= len(pp.rows) {
			return out, nil
		}
		if fromRem {
			kr := pp.rows[ri]
			ri++
			if have && kr.key == lastKey {
				continue
			}
			lastKey, have = kr.key, true
			pp.bud.MustReserve(projRowCost(kr.key, len(pp.sel)))
			out = append(out, kr)
			continue
		}
		h := heads[best]
		var err error
		if have && string(h) == lastKey {
			if heads[best], _, err = readers[best].next(); err != nil {
				return nil, err
			}
			continue
		}
		key := string(h)
		row, err := decodeProjKey(h, len(pp.sel))
		if err != nil {
			return nil, err
		}
		if heads[best], _, err = readers[best].next(); err != nil {
			return nil, err
		}
		lastKey, have = key, true
		pp.bud.MustReserve(projRowCost(key, len(pp.sel)))
		out = append(out, keyedRow{key, row})
	}
}
