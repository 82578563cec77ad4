// This file is named batch.go so it falls under the columnar half of
// the tuple-execution contract: a column vector is tuple storage turned
// sideways, and allocating one without a budget charge is the same PR 5
// bug class as an uncharged tuple slice.
package query

import (
	"fixtures/memcharge/kb"
	"fixtures/memcharge/mem"
)

// colBatch mirrors the executor's column batch: per-slot value vectors
// plus a selection mask.
type colBatch struct {
	cols [][]kb.Value
	sel  []bool
}

// newBatchUncharged allocates column vectors with no budget call
// anywhere in the function: the batch-plane variant of the bug class.
func newBatchUncharged(width, rows int) *colBatch {
	cols := make([][]kb.Value, width) // want "newBatchUncharged allocates tuple storage .* but never charges the query memory budget"
	for i := range cols {
		cols[i] = make([]kb.Value, rows) // want "newBatchUncharged allocates tuple storage"
	}
	return &colBatch{cols: cols, sel: make([]bool, rows)}
}

// newBatchCharged reserves the columns' capacity before allocating:
// conforming.
func newBatchCharged(bud *mem.Budget, width, rows int) *colBatch {
	bud.MustReserve(int64(width) * int64(rows) * 16)
	cols := make([][]kb.Value, width)
	for i := range cols {
		cols[i] = make([]kb.Value, rows)
	}
	return &colBatch{cols: cols, sel: make([]bool, rows)}
}

// stageProj stubs the streaming projection and its charge helper:
// ensure reserves a projected row's retention (or rotates the dedup set
// to a spill run), so the analyzer accepts it as a charge site
// alongside Reserve/MustReserve.
type stageProj struct {
	bud  *mem.Budget
	rows [][]kb.Value
}

func (pp *stageProj) ensure(n int64) { pp.bud.MustReserve(n) }

// projViaEnsure routes a projected row through ensure: conforming.
func projViaEnsure(pp *stageProj, row []kb.Value) {
	out := make([]kb.Value, len(row)) // covered: the ensure call below charges
	copy(out, row)
	pp.ensure(int64(len(row)) * 16)
	pp.rows = append(pp.rows, out)
}

// hashVector allocates the batch's hash vector — non-tuple storage,
// outside the contract.
func hashVector(rows int) []uint64 {
	return make([]uint64, rows)
}
