// Package query is the memcharge fixture's executor: this file is named
// spill.go so it falls under the tuple-execution contract.
package query

import (
	"fixtures/memcharge/kb"
	"fixtures/memcharge/mem"
)

// gatherUncharged allocates tuple storage with no budget call anywhere
// in the function: the PR 5 bug class.
func gatherUncharged(n int) [][]kb.Value {
	out := make([][]kb.Value, 0, n) // want "gatherUncharged allocates tuple storage .* but never charges the query memory budget"
	return out
}

// buildUncharged allocates a build table (map of tuple slices), also
// unbudgeted.
func buildUncharged(rows [][]kb.Value) map[string][][]kb.Value {
	tbl := make(map[string][][]kb.Value, len(rows)) // want "buildUncharged allocates tuple storage"
	for _, r := range rows {
		tbl[""] = append(tbl[""], r)
	}
	return tbl
}

// gatherCharged reserves before allocating: conforming.
func gatherCharged(bud *mem.Budget, n int) [][]kb.Value {
	bud.MustReserve(int64(n) * 24)
	return make([][]kb.Value, 0, n)
}

// gatherReserve uses the fallible reservation: also conforming.
func gatherReserve(bud *mem.Budget, n int) ([][]kb.Value, error) {
	if err := bud.Reserve(int64(n) * 24); err != nil {
		return nil, err
	}
	return make([][]kb.Value, 0, n), nil
}

// counts allocates non-tuple storage: outside the contract.
func counts(n int) []int {
	return make([]int, n)
}

// pooled is the suppression case: the allocation is recycled and its
// retention charged elsewhere, so the exception is annotated.
func pooled(n int) []kb.Value {
	//lint:onion-ignore fixture: pool-recycled buffer whose in-flight retention is charged by the pool
	return make([]kb.Value, n)
}
