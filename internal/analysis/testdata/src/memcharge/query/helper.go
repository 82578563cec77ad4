package query

import "fixtures/memcharge/kb"

// cloneRows allocates tuple storage in a file outside the contract's
// scope (batch.go/pipeline.go/spill.go): no finding — the setup and
// result-surface paths own their accounting separately.
func cloneRows(rows [][]kb.Value) [][]kb.Value {
	out := make([][]kb.Value, len(rows))
	copy(out, rows)
	return out
}
