package query

import (
	"sync"

	"repro/internal/kb"
	"repro/internal/query/mem"
)

// This file holds the pieces of the cross-step pipeline that are not
// columnar: the channel depths, the per-step filter split, the streaming
// projection of the last stage and the ordered merge of its partitions.
// The pipeline itself is executeBatched (batchpipe.go).

// pipeChanDepth is the buffer of every partition channel between
// pipeline stages; budgeted executions use the smaller depth so the
// accounted in-flight volume stays well under the cap. The small buffer
// absorbs producer/consumer jitter; stage workers always keep consuming
// (select over both inputs), so bounded buffers cannot deadlock the
// pipeline — they only apply backpressure upstream.
const (
	pipeChanDepth     = 4
	budgetedChanDepth = 2
)

// stepFilterSets splits the query's filters by the step after which they
// first apply (every variable bound), in join order — the pipelined
// equivalent of applyTupleFilters' as-soon-as-bound rule, applied on the
// selection mask as batches stream between steps.
func stepFilterSets(q Query, plan *execPlan) [][]Filter {
	sets := make([][]Filter, len(plan.steps))
	bound := make(map[string]bool)
	taken := make([]bool, len(q.Filters))
	for si := range plan.steps {
		for _, v := range plan.steps[si].vars {
			bound[v] = true
		}
		for fi, f := range q.Filters {
			if !taken[fi] && bound[f.Var] {
				taken[fi] = true
				sets[si] = append(sets[si], f)
			}
		}
	}
	return sets
}

// stageProj is one last-stage partition's streaming projection: probe
// output dedups straight onto the SELECT slots as it is emitted, so the
// final frontier is never materialised — only the partition's distinct
// projected rows are retained. Under Options{MemoryLimit} that retention
// is itself spillable (projspill.go): the dedup set reserves from the
// shared pool and rotates to sorted temp-file runs when refused, so even
// a distinct answer set larger than the cap stays within it. Rows are
// sorted by their row key at stage end (merging any runs back) and the
// executor merges the sorted partitions.
type stageProj struct {
	sel  []int
	keys map[string]struct{}
	rows []keyedRow
	buf  []byte
	bud  *mem.Budget // root: final rows and run write buffers (MustReserve)

	// Spill state (limit-governed executions only; projspill.go).
	spill    *mem.Budget // spillable dedup-set reservations (nil: never spills)
	dir      string
	runs     []*projRun
	charged  int64 // bytes currently reserved on spill
	headroom int64 // granted but not yet consumed by row charges
	bytes    int64 // record bytes written across runs (Stats.SpilledBytes)
	spilled  bool  // rotated at least once (Stats.ProjectionSpills)
	err      error
}

// projKeysPool recycles projection dedup sets across partitions and
// executions: a cleared map keeps its buckets, so a steady query mix
// dedups into already-grown tables. Live entries are charged per row
// (addBatchRow's ensure); an idle pooled map holds no entries.
var projKeysPool sync.Pool

// newStageProj builds one partition's projection. pool, when non-nil,
// is the spillable reservation pool the dedup set draws on (the
// limit-governed pipeline passes its spill pool; unbounded executions
// pass nil and the set charges the root as un-spillable state).
func newStageProj(q Query, plan *execPlan, bud, pool *mem.Budget, dir string) *stageProj {
	sel := make([]int, len(q.Select))
	for i, v := range q.Select {
		sel[i] = plan.slotOf[v]
	}
	keys, ok := projKeysPool.Get().(map[string]struct{})
	if !ok {
		keys = make(map[string]struct{})
	}
	pp := &stageProj{sel: sel, keys: keys, bud: bud}
	if pool != nil {
		pp.spill = pool.Child(0)
		pp.dir = dir
	}
	return pp
}

// addBatchRow projects row i of a columnar batch: encode the SELECT cells
// as the row key, drop duplicates, charge and keep the rest.
func (pp *stageProj) addBatchRow(b *colBatch, i int) {
	pp.buf = pp.buf[:0]
	for _, s := range pp.sel {
		pp.buf = appendValueKey(pp.buf, b.cols[s][i])
	}
	if _, dup := pp.keys[string(pp.buf)]; dup {
		return
	}
	key := string(pp.buf)
	// Charge before inserting: a rotation inside ensure flushes the
	// buffered set to a run, and the new row belongs to the next set.
	pp.ensure(projRowCost(key, len(pp.sel)))
	pp.keys[key] = struct{}{}
	out := make([]kb.Value, len(pp.sel))
	for k, s := range pp.sel {
		out[k] = b.cols[s][i]
	}
	pp.rows = append(pp.rows, keyedRow{key, out})
}

// mergeSortedKeyed merges per-partition sorted keyedRow groups into the
// deterministic global row order, dropping cross-partition duplicates
// (two partitions can project onto the same row even though their join
// keys differ — a duplicated key always carries a cell-identical row,
// since the key is the row's full encoding, so pop order among equal
// keys cannot change the output). A min-heap over the group heads keeps
// the per-row cost at log(groups) key compares; below mergeHeapMin
// groups a linear head scan is cheaper.
func mergeSortedKeyed(groups [][]keyedRow, bud *mem.Budget) [][]kb.Value {
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	// The merged slice shares its row backing with the (already charged)
	// per-partition projections; only the row headers are new retention.
	bud.MustReserve(int64(total) * 24)
	rows := make([][]kb.Value, 0, total)
	idx := make([]int, len(groups))
	lastKey, have := "", false
	emit := func(kr keyedRow) {
		if have && kr.key == lastKey {
			return
		}
		lastKey, have = kr.key, true
		rows = append(rows, kr.row)
	}
	if len(groups) < mergeHeapMin {
		for {
			best := -1
			for gi, g := range groups {
				if idx[gi] >= len(g) {
					continue
				}
				if best == -1 || g[idx[gi]].key < groups[best][idx[best]].key {
					best = gi
				}
			}
			if best == -1 {
				return rows
			}
			kr := groups[best][idx[best]]
			idx[best]++
			emit(kr)
		}
	}
	// heap[0..len) holds group indices ordered by each group's current
	// head key.
	less := func(a, b int) bool { return groups[a][idx[a]].key < groups[b][idx[b]].key }
	h := make([]int, 0, len(groups))
	for gi, g := range groups {
		if len(g) > 0 {
			h = append(h, gi)
		}
	}
	siftDown := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(h) {
				return
			}
			m := l
			if r := l + 1; r < len(h) && less(h[r], h[l]) {
				m = r
			}
			if !less(h[m], h[i]) {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(h) > 0 {
		g := h[0]
		kr := groups[g][idx[g]]
		idx[g]++
		if idx[g] >= len(groups[g]) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(0)
		emit(kr)
	}
	return rows
}

// mergeHeapMin is the group count at which mergeSortedKeyed switches
// from a linear head scan to the heap.
const mergeHeapMin = 8
