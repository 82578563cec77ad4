package query

import (
	"math"
	"sync"

	"repro/internal/kb"
	"repro/internal/query/mem"
	"repro/internal/rowcodec"
)

// This file is the columnar batch layer under the executor
// (batchpipe.go): per-slot value vectors in fixed-capacity batches, a
// selection bitmap instead of survivor copies, a []uint64 hash vector
// filled one key column at a time, and budget accounting charged once
// per batch (column capacity) instead of once per row. A colBatch is the
// one row currency, on disk too: spill runs (spill.go) encode records
// straight from batch columns and replay them back into batches.

// batchRows is the row capacity of one column batch — scans fill batches
// in runs of this size and every vectorized pass (hash, filter, scatter)
// works over at most this many rows. 512 is the sweet spot PR 10 measured:
// the vectorization win saturates well before that (the per-row loop
// bodies are branch-light), fuller batches amortise the channel hop, and
// a 1024-row capacity measured slower on the deep-chain world, where
// partitions see a few hundred rows and capacity-sized columns just
// thrash the allocator. budgetedBatchRows is the smaller capacity used
// under Options{MemoryLimit}, keeping each batch's fixed charge
// (width·batchRows·valueBytes) well under a small cap.
const (
	batchRows         = 512
	budgetedBatchRows = 32
)

// colBatch is one batch of execution rows in columnar layout: cols[s][i]
// is row i's value for plan slot s (kind-tagged — kb.Value carries its
// kind, so a column is a kind-tagged value vector). hashes[i] is row i's
// join-key hash on whatever key the producing side routed on. sel, when
// non-nil, is a selection bitmap over the rows: vectorized filters clear
// bits instead of copying survivors, and downstream passes skip dead
// rows. A nil sel means every row is live.
type colBatch struct {
	n      int
	cols   [][]kb.Value
	hashes []uint64
	sel    []uint64
	cost   int64 // budget charge held while checked out of the pool
}

// batchCost is the accounted footprint of one batch: full column
// capacity (the batch holds its arrays for its whole pooled life) plus
// the hash vector and the selection bitmap.
func batchCost(width, rows int) int64 {
	return int64(rows)*(int64(width)*valueBytes+8) + int64((rows+63)/64*8)
}

// colBatchPool recycles batch buffers across executions: steady-state
// streaming allocates no new columns at all. Shapes vary by query (width)
// and by budget (row capacity), so get re-allocates on a shape mismatch;
// a server answering a stable query mix converges to perfect reuse.
var colBatchPool sync.Pool

// batchAlloc hands out colBatches for one execution. The budget is
// charged at checkout and released when the batch is returned — once
// per batch, column-capacity accounting — so a batch's bytes are
// accounted for exactly as long as it is live (staging, in flight on a
// channel, or being drained by a consumer).
type batchAlloc struct {
	width int
	rows  int
	bud   *mem.Budget
}

func newBatchAlloc(width int, bud *mem.Budget) *batchAlloc {
	rows := batchRows
	if bud.Limit() > 0 {
		rows = budgetedBatchRows
	}
	return &batchAlloc{width: width, rows: rows, bud: bud}
}

// get returns an empty batch with every column at capacity, charging its
// capacity cost to the execution budget.
func (a *batchAlloc) get() *colBatch {
	a.bud.MustReserve(batchCost(a.width, a.rows))
	if b, ok := colBatchPool.Get().(*colBatch); ok {
		if len(b.cols) == a.width && len(b.hashes) == a.rows {
			b.cost = batchCost(a.width, a.rows)
			return b
		}
		// Wrong shape for this execution: drop it and allocate fresh.
	}
	//lint:onion-ignore pool-recycled fixed-capacity columns shared across queries; live retention is charged per batch at checkout (MustReserve above) and released at put
	b := &colBatch{
		cols:   make([][]kb.Value, a.width),
		hashes: make([]uint64, a.rows),
		cost:   batchCost(a.width, a.rows),
	}
	for s := range b.cols {
		b.cols[s] = make([]kb.Value, a.rows)
	}
	return b
}

// put releases the batch's charge and recycles its buffers. The batch's
// values are dead after put — consumers copy what they retain (build
// stores, projections) before returning the batch.
func (a *batchAlloc) put(b *colBatch) {
	a.bud.Release(b.cost)
	b.n = 0
	b.sel = nil
	b.cost = 0
	colBatchPool.Put(b)
}

// full reports that the batch has no room for another row.
func (b *colBatch) full() bool { return b.n >= len(b.hashes) }

// live reports whether row i survived the selection mask.
func (b *colBatch) live(i int) bool {
	return b.sel == nil || b.sel[i>>6]&(1<<uint(i&63)) != 0
}

// ensureSel materialises the selection bitmap with every current row
// live; filters then clear bits.
func (b *colBatch) ensureSel() {
	if b.sel != nil {
		return
	}
	words := (len(b.hashes) + 63) / 64
	b.sel = make([]uint64, words)
	for w := range b.sel {
		b.sel[w] = ^uint64(0)
	}
}

// clearRow drops row i from the selection.
func (b *colBatch) clearRow(i int) {
	b.sel[i>>6] &^= 1 << uint(i&63)
}

// batchHashSeed starts every row's key-hash accumulation; hashCell folds
// one key column's cell in. Values are hashed directly — kind, canonical
// float bits, string bytes — instead of encoding the key to rowkey bytes
// first, so a hash pass touches each column once with no byte
// materialisation. hashCell must respect the engine's join equality
// (rowcodec.SameCell): equal cells hash equal, every NaN hashes in one
// class, and +0/-0 may differ (they never join). A keyless (cross-product) step
// hashes every row to the seed itself.
const batchHashSeed = 0x9E3779B97F4A7C15

// canonNaNBits is the one bit image all NaNs hash through, mirroring the
// rowkey encoding's NaN canonicalisation.
const canonNaNBits = 0x7FF8000000000000

// mix64 is a 64-bit finalizer (splitmix64's): full avalanche, so routing
// by low bits and spill sub-partitioning by high bits stay uncorrelated.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// hashCell folds one cell into a row's key hash.
func hashCell(h uint64, v *kb.Value) uint64 {
	if v.Kind == kb.KindNumber {
		bits := math.Float64bits(v.Num)
		if v.Num != v.Num {
			bits = canonNaNBits
		}
		return mix64(h ^ mix64(bits^(uint64(v.Kind)+1)*0x9E3779B97F4A7C15))
	}
	hs := uint64(14695981039346656037) ^ (uint64(v.Kind)+1)*1099511628211
	for i := 0; i < len(v.Str); i++ {
		hs ^= uint64(v.Str[i])
		hs *= 1099511628211
	}
	return mix64(h ^ hs)
}

// hashKeys fills the batch's hash vector on the given key slots: one
// pass per key column, combined in slot order. Dead rows are hashed too
// (branch-free inner loop); their hashes are simply never read.
func (b *colBatch) hashKeys(slots []int) {
	h := b.hashes[:b.n]
	for i := range h {
		h[i] = batchHashSeed
	}
	for _, s := range slots {
		col := b.cols[s][:b.n]
		for i := range col {
			h[i] = hashCell(h[i], &col[i])
		}
	}
}

// applyFilterVec evaluates one filter over its slot's column, clearing
// selection bits for failing rows — predicates set bits in the mask
// instead of copying survivors. Numeric comparison operators run a
// branch-light specialised loop; the general case defers to
// Filter.Accepts cell by cell (bitwise-identical semantics either way).
func (b *colBatch) applyFilterVec(slot int, f Filter) {
	b.ensureSel()
	col := b.cols[slot][:b.n]
	if f.Value.IsNumber() {
		fv := f.Value.Num
		switch f.Op {
		case OpLT:
			for i := range col {
				if !(col[i].Kind == kb.KindNumber && col[i].Num < fv) {
					b.clearRow(i)
				}
			}
			return
		case OpLE:
			for i := range col {
				if !(col[i].Kind == kb.KindNumber && col[i].Num <= fv) {
					b.clearRow(i)
				}
			}
			return
		case OpGT:
			for i := range col {
				if !(col[i].Kind == kb.KindNumber && col[i].Num > fv) {
					b.clearRow(i)
				}
			}
			return
		case OpGE:
			for i := range col {
				if !(col[i].Kind == kb.KindNumber && col[i].Num >= fv) {
					b.clearRow(i)
				}
			}
			return
		}
	}
	for i := range col {
		if !f.Accepts(col[i]) {
			b.clearRow(i)
		}
	}
}

// applyFiltersVec runs one step's filter set over the batch, column by
// column.
func (b *colBatch) applyFiltersVec(fs []Filter, plan *execPlan) {
	for _, f := range fs {
		b.applyFilterVec(plan.slotOf[f.Var], f)
	}
}

// copyRow copies row i of src into the next row of b and records its
// hash. Only the slots listed are copied — the slots bound at this
// point in the chain; columns outside the list carry recycled garbage
// that no downstream pass ever reads (which slots are bound is a
// plan-level property). The caller checks capacity.
func (b *colBatch) copyRow(src *colBatch, i int, h uint64, slots []int) {
	j := b.n
	for _, s := range slots {
		b.cols[s][j] = src.cols[s][i]
	}
	b.hashes[j] = h
	b.n++
}

// buildStore is one stage partition's columnar build side: rows appended
// batch-at-a-time (column copies, no per-row allocation), indexed by key
// hash through an intrusive chain: tab is a flat open-addressing table
// whose entries point at each hash's latest row (1+ordinal; 0 = empty
// slot) and next links back to the previous one, so indexing a row never
// allocates — and probing is a masked array walk instead of a Go-map
// lookup per probe row, the hot operation of the vectorized join. The
// key hashes are already finalizer-mixed (mix64), so `h & mask` placement
// needs no re-hash. Only the slots the step actually binds or keys on are
// stored — the probe side contributes every other slot to the merged
// output row.
type buildStore struct {
	slots  []int // stored slots (keySlots ∪ newSlots)
	cols   [][]kb.Value
	hashes []uint64
	tab    []int32 // open-addressing index: 1+row ordinal of a chain head, 0 empty
	used   int     // occupied tab slots (distinct hashes)
	next   []int32 // next[i]: previous row with row i's hash, -1 at chain end
}

// buildTabMinSize is the smallest index table (power of two); the table
// doubles when occupancy passes 3/4.
const buildTabMinSize = 1024

// buildStorePool recycles build stores across stage partitions and
// executions, like colBatchPool: a recycled store keeps its column,
// hash-vector and chain capacity, so a steady query mix builds its hash
// tables into already-grown arrays. In-execution retention is still the
// partition budget reservation that admitted each batch; idle pooled
// capacity is unaccounted, the same convention as the batch pool.
var buildStorePool sync.Pool

func newBuildStore(stp *planStep, width int) *buildStore {
	slots := make([]int, 0, len(stp.keySlots)+len(stp.newSlots))
	slots = append(slots, stp.keySlots...)
	slots = append(slots, stp.newSlots...)
	if v, ok := buildStorePool.Get().(*buildStore); ok {
		if len(v.cols) == width {
			v.slots = slots
			return v
		}
		// Wrong width for this plan: drop it and allocate fresh.
	}
	//lint:onion-ignore column backing grows by append under the reservation that admitted each batch (takeBuild's partition Reserve, a grace chunk's root Reserve)
	bs := &buildStore{slots: slots, cols: make([][]kb.Value, width), tab: make([]int32, buildTabMinSize)}
	return bs
}

// release empties the store (keeping capacity) and returns it to the
// pool. The store's values are dead after release.
func (bs *buildStore) release() {
	for s := range bs.cols {
		if bs.cols[s] != nil {
			bs.cols[s] = bs.cols[s][:0]
		}
	}
	bs.hashes = bs.hashes[:0]
	bs.next = bs.next[:0]
	clear(bs.tab)
	bs.used = 0
	buildStorePool.Put(bs)
}

// link chains row j (whose hash is already appended at bs.hashes[j])
// into the index: the table entry for its hash moves to j and next[j]
// points at the previous head (-1 when j starts the chain). Grows the
// table at 3/4 occupancy by re-linking every row in insertion order,
// which rebuilds identical chains.
func (bs *buildStore) link(j int32) {
	if (bs.used+1)*4 > len(bs.tab)*3 {
		bs.grow()
	}
	h := bs.hashes[j]
	mask := uint64(len(bs.tab) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := bs.tab[i]
		if e == 0 {
			bs.tab[i] = j + 1
			bs.next = append(bs.next, -1)
			bs.used++
			return
		}
		if bs.hashes[e-1] == h {
			bs.next = append(bs.next, e-1)
			bs.tab[i] = j + 1
			return
		}
	}
}

func (bs *buildStore) grow() {
	size := len(bs.tab) * 2
	if size < buildTabMinSize {
		size = buildTabMinSize
	}
	bs.tab = make([]int32, size)
	bs.used = 0
	mask := uint64(size - 1)
	for j := range bs.next {
		h := bs.hashes[j]
		for i := h & mask; ; i = (i + 1) & mask {
			e := bs.tab[i]
			if e == 0 {
				bs.tab[i] = int32(j) + 1
				bs.used++
				break
			}
			if bs.hashes[e-1] == h {
				bs.tab[i] = int32(j) + 1
				break
			}
		}
	}
}

// appendBatch copies the batch's rows into the store column by column
// and chains them into the hash index. Retention is the caller's
// reservation (the Reserve that admitted the batch).
func (bs *buildStore) appendBatch(b *colBatch) {
	base := int32(len(bs.hashes))
	for _, s := range bs.slots {
		bs.cols[s] = append(bs.cols[s], b.cols[s][:b.n]...)
	}
	bs.hashes = append(bs.hashes, b.hashes[:b.n]...)
	for i := 0; i < b.n; i++ {
		bs.link(base + int32(i))
	}
}

func (bs *buildStore) rows() int { return len(bs.hashes) }

// head returns the most recent row with the given hash, or -1; walk the
// chain with bs.next[j].
func (bs *buildStore) head(h uint64) int32 {
	mask := uint64(len(bs.tab) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := bs.tab[i]
		if e == 0 {
			return -1
		}
		if bs.hashes[e-1] == h {
			return e - 1
		}
	}
}

// keysEqualAt verifies a hash match between probe row (pb, i) and build
// row j under the engine's join equality (rowcodec.SameCell per key slot).
func (bs *buildStore) keysEqualAt(pb *colBatch, i int, j int32, keySlots []int) bool {
	for _, s := range keySlots {
		if !rowcodec.SameCell(pb.cols[s][i], bs.cols[s][j]) {
			return false
		}
	}
	return true
}
