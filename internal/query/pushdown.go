package query

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/articulation"
	"repro/internal/kb"
)

// Selection pushdown through the articulation. §4.1 gives every
// functional rule "functions to perform the conversions both ways"; the
// scans only ever run them forward, so a FILTER on a converted attribute
// used to run after every source value had been read, converted and
// joined. The planner now maps such a filter back into source units and
// the scan reads only the facts whose raw value can pass, from a sorted
// per-(source, predicate) numeric index:
//
//   - Monotone conversion. A range is pushed through a predicate only when
//     its first conversion candidate (normFuncNames) is declared linear by
//     RegisterLinear, or when it has no conversion at all. A linear
//     function never fails, so it converts every number of the predicate,
//     and v*factor + offset with finite coefficients is monotone in
//     floating point too: increasing for a positive factor, decreasing
//     for a negative one. Opaque functions are never pushed through.
//   - Verified boundary. The bound starts at the inverse image
//     (T-offset)/factor and steps outward, one ulp at a time, until the
//     registered forward function maps it to a value that fails the
//     filter. Monotonicity then proves every value past the bound fails
//     too, so the range is a sound over-approximation whatever the
//     inverse arithmetic's rounding. A bound that does not settle within
//     maxBoundSteps leaves the scan unpushed.
//   - Exact re-check. The survivors are converted as before and the
//     executor's filter pass re-checks them in articulation units.
//
// NaN and non-numeric objects are never in the index and never pass a
// numeric filter; edge objects are terms, so pushed scans skip edges.
// != and string filters stay where they were.

// maxBoundSteps bounds the outward ulp steps of a verified boundary.
const maxBoundSteps = 16

// pushableFilters returns the query's filters that can run inside a scan:
// a <, <=, >, >= or = comparison with a numeric constant, on a variable
// that is the object of some triple with a constant predicate. Only these
// enter the plan key.
func pushableFilters(q Query) []Filter {
	var out []Filter
	for _, f := range q.Filters {
		if f.Op == OpNE || !f.Value.IsNumber() {
			continue
		}
		for _, t := range q.Where {
			if !t.P.IsVar() && t.O.IsVar() && t.O.Var == f.Var {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// numRange is a set of source-unit values: lo..hi with each end open or
// closed. The unbounded range is [-Inf, +Inf]; every bound the planner
// derives is open (a value shown to fail the filter).
type numRange struct {
	lo, hi         float64
	loOpen, hiOpen bool
}

func fullRange() numRange { return numRange{lo: math.Inf(-1), hi: math.Inf(1)} }

func (r numRange) hasLo() bool { return r.loOpen || !math.IsInf(r.lo, -1) }
func (r numRange) hasHi() bool { return r.hiOpen || !math.IsInf(r.hi, 1) }

func (r numRange) empty() bool {
	return r.lo > r.hi || (r.lo == r.hi && (r.loOpen || r.hiOpen))
}

// format renders the range over a predicate name, e.g. "Price < 937.5".
func (r numRange) format(pred string) string {
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	op := func(open bool) string {
		if open {
			return "<"
		}
		return "<="
	}
	switch {
	case r.empty():
		return pred + " ∈ ∅"
	case r.hasLo() && r.hasHi():
		return num(r.lo) + " " + op(r.loOpen) + " " + pred + " " + op(r.hiOpen) + " " + num(r.hi)
	case r.hasLo():
		return pred + " " + strings.Replace(op(r.loOpen), "<", ">", 1) + " " + num(r.lo)
	case r.hasHi():
		return pred + " " + op(r.hiOpen) + " " + num(r.hi)
	}
	return pred + " any number"
}

// pushedPred is one predicate of a pushed scan: the forward conversion
// the scan applies to its numbers and the source-unit range the pushed
// filters map back to.
type pushedPred struct {
	pred           string
	fname          string // first conversion candidate; "" = no conversion
	factor, offset float64
	rng            numRange
}

// live reports whether the conversion the range was derived for is still
// the one the scan applies: nf are the predicate's current candidates. A
// plan outlives registry edits (they bump no epoch), so a re-registered
// function falls back to the full predicate walk.
func (pp *pushedPred) live(nf []string, funcs *articulation.FuncRegistry) bool {
	if pp.fname == "" {
		return len(nf) == 0
	}
	if len(nf) == 0 || nf[0] != pp.fname {
		return false
	}
	f, o, ok := funcs.Linear(pp.fname)
	return ok && f == pp.factor && o == pp.offset
}

// String renders the pushed range and the function it came through, e.g.
// "Price < 937.5 (PSToEuroFn⁻¹)".
func (pp pushedPred) String() string {
	via := "identity"
	if pp.fname != "" {
		via = pp.fname + "⁻¹"
	}
	return pp.rng.format(pp.pred) + " (" + via + ")"
}

// pushedString renders a scan's pushed predicates ("" when unpushed).
func pushedString(pps []pushedPred) string {
	parts := make([]string, len(pps))
	for i, pp := range pps {
		parts[i] = pp.String()
	}
	return strings.Join(parts, "; ")
}

// pushScan maps the filters on a triple's object variable into source
// units for every predicate of one source's scan. It returns nil — the
// scan keeps post-conversion filtering — when there is nothing to push or
// when any predicate converts through an opaque function or a bound that
// does not settle.
func (e *Engine) pushScan(name string, v scanView, fs []Filter) []pushedPred {
	if len(fs) == 0 || v.skip || v.preds == nil {
		return nil
	}
	out := make([]pushedPred, 0, len(v.predList))
	for _, p := range v.predList {
		pp := pushedPred{pred: p, factor: 1}
		conv := func(x float64) (float64, bool) { return x, true }
		if nf := e.normFuncNames(name, p); len(nf) > 0 {
			factor, offset, ok := e.art.Funcs.Linear(nf[0])
			if !ok {
				return nil
			}
			fname := nf[0]
			pp.fname, pp.factor, pp.offset = fname, factor, offset
			conv = func(x float64) (float64, bool) {
				y, err := e.art.Funcs.Apply(fname, x)
				return y, err == nil
			}
		}
		rng, ok := sourceRange(fs, pp.factor, pp.offset, conv)
		if !ok {
			return nil
		}
		pp.rng = rng
		out = append(out, pp)
	}
	return out
}

// sourceRange intersects the source-unit ranges of the filters under one
// monotone conversion conv ≈ x*factor + offset. An = filter is the
// intersection of <= and >=, and a NaN constant passes nothing.
func sourceRange(fs []Filter, factor, offset float64, conv func(float64) (float64, bool)) (numRange, bool) {
	r := fullRange()
	for _, f := range fs {
		c := f.Value.Num
		if math.IsNaN(c) {
			return numRange{lo: math.Inf(1), hi: math.Inf(-1)}, true
		}
		ops := []CmpOp{f.Op}
		if f.Op == OpEQ {
			ops = []CmpOp{OpLE, OpGE}
		}
		for _, op := range ops {
			check := Filter{Op: op, Value: kb.Number(c)}
			// The passing side of y is a half-line; in x it lies below the
			// bound when the filter caps y and the conversion increases,
			// or when it floors y and the conversion decreases.
			upper := (op == OpLT || op == OpLE) != (factor < 0)
			dir := math.Inf(-1)
			if upper {
				dir = math.Inf(1)
			}
			b, unbounded, ok := verifiedBound((c-offset)/factor, dir, check, conv)
			switch {
			case !ok:
				return numRange{}, false
			case unbounded:
			case upper:
				if b < r.hi || (b == r.hi && !r.hiOpen) {
					r.hi, r.hiOpen = b, true
				}
			default:
				if b > r.lo || (b == r.lo && !r.loOpen) {
					r.lo, r.loOpen = b, true
				}
			}
		}
	}
	return r, true
}

// verifiedBound steps x toward dir (±Inf) until conv(x) fails check and
// returns that x: by monotonicity no value beyond it passes. unbounded
// reports that x reached dir still passing (the whole side passes); ok is
// false when neither happens within maxBoundSteps or conv fails.
func verifiedBound(x, dir float64, check Filter, conv func(float64) (float64, bool)) (b float64, unbounded, ok bool) {
	if math.IsNaN(x) {
		return 0, false, false
	}
	for step := 0; step <= maxBoundSteps; step++ {
		y, cok := conv(x)
		if !cok {
			return 0, false, false
		}
		if !check.Accepts(kb.Number(y)) {
			return x, false, true
		}
		if x == dir {
			return 0, true, true
		}
		x = math.Nextafter(x, dir)
	}
	return 0, false, false
}

// numIndex is one (source, predicate)'s numeric objects sorted by value
// (ties by fact ordinal); NaN objects are left out. A range read is two
// binary searches.
type numIndex struct {
	ents []numEntry
	ords int // one past the largest ordinal in ents
}

type numEntry struct {
	v   float64
	ord int // store ordinal (kb.Store.FactAt)
}

// span returns the half-open entry interval [lo, hi) inside r.
func (ix *numIndex) span(r numRange) (lo, hi int) {
	lo = sort.Search(len(ix.ents), func(i int) bool {
		if r.loOpen {
			return ix.ents[i].v > r.lo
		}
		return ix.ents[i].v >= r.lo
	})
	hi = sort.Search(len(ix.ents), func(i int) bool {
		if r.hiOpen {
			return ix.ents[i].v >= r.hi
		}
		return ix.ents[i].v > r.hi
	})
	return lo, max(lo, hi)
}

// inStoreOrder calls fn with the ordinals of entries [lo, hi) ascending —
// the order the predicate walk reads them in, which keeps the
// downstream dedup-and-sort fed with nearly sorted rows, and the order
// the semi-join's first-seen subject set is built in, which keeps its
// bound scans deterministic. The cost follows the range, not the store:
// a sparse range sorts its own ordinals (O(k log k) time, k words), and
// only a range dense enough to beat that walks a bitset over the whole
// ordinal space (O(ords/64 + k), ords/64 words).
func (ix *numIndex) inStoreOrder(lo, hi int, fn func(ord int)) {
	if k := hi - lo; k*bits.Len(uint(k)) < ix.ords/64 {
		ix.sortedOrder(lo, hi, fn)
		return
	}
	ix.bitsetOrder(lo, hi, fn)
}

// sortedOrder is inStoreOrder for a sparse range: gather and sort.
func (ix *numIndex) sortedOrder(lo, hi int, fn func(ord int)) {
	ords := make([]int, hi-lo)
	for i, ent := range ix.ents[lo:hi] {
		ords[i] = ent.ord
	}
	slices.Sort(ords)
	for _, ord := range ords {
		fn(ord)
	}
}

// bitsetOrder is inStoreOrder for a dense range: mark each ordinal in a
// bitset over the ordinal space, then walk it.
func (ix *numIndex) bitsetOrder(lo, hi int, fn func(ord int)) {
	set := make([]uint64, (ix.ords+63)/64)
	for _, ent := range ix.ents[lo:hi] {
		set[ent.ord/64] |= 1 << (ent.ord % 64)
	}
	for w, word := range set {
		for word != 0 {
			fn(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// numIndex returns the numeric index of one predicate in rec's source,
// building it on first use — the one table of a record built lazily, per
// predicate. Nothing is maintained on the store's write path: the
// record's extension merges appended facts' numbers into every built
// index, and any other change replaces the record (validateEpochs).
func (e *Engine) numIndex(rec *sourceIndex, pred string) *numIndex {
	e.mu.RLock()
	ix := rec.nums[pred]
	e.mu.RUnlock()
	if ix != nil {
		return ix
	}
	var ents []numEntry
	rec.state.kb.ForEachByPredicateIndexed(pred, func(i int, f kb.Fact) bool {
		if isIndexedNum(f.Object) {
			ents = append(ents, numEntry{f.Object.Num, i})
		}
		return true
	})
	built := &numIndex{}
	built.add(ents)
	e.mu.Lock()
	if ix = rec.nums[pred]; ix == nil {
		rec.nums[pred] = built
		ix = built
	}
	e.mu.Unlock()
	return ix
}

// isIndexedNum reports whether a fact object belongs in a numeric index.
func isIndexedNum(v kb.Value) bool { return v.IsNumber() && !math.IsNaN(v.Num) }

// add merges ents — entries whose ordinals all lie past the index's —
// into the index, keeping it sorted by (value, ordinal). It sorts ents in
// place and keeps it as the index when the index is empty; otherwise the
// merged entries go to a fresh slice.
func (ix *numIndex) add(ents []numEntry) {
	if len(ents) == 0 {
		return
	}
	for _, en := range ents {
		ix.ords = max(ix.ords, en.ord+1)
	}
	slices.SortFunc(ents, cmpNumEntry)
	old := ix.ents
	if len(old) == 0 {
		ix.ents = ents
		return
	}
	merged := make([]numEntry, 0, len(old)+len(ents))
	i := 0
	for _, en := range ents {
		k, _ := slices.BinarySearchFunc(old[i:], en, cmpNumEntry)
		merged = append(merged, old[i:i+k]...)
		merged = append(merged, en)
		i += k
	}
	ix.ents = append(merged, old[i:]...)
}

func cmpNumEntry(a, b numEntry) int {
	if c := cmp.Compare(a.v, b.v); c != 0 {
		return c
	}
	return cmp.Compare(a.ord, b.ord)
}

// pushedCount is a pushed scan's exact row count: the facts inside its
// ranges (a pushed scan emits no edges, and a KB-less source nothing).
func (e *Engine) pushedCount(name string, v scanView) int {
	if e.sources[name].KB == nil || name == e.art.Ont.Name() {
		return 0
	}
	rec, n := e.index(name), 0
	for _, pp := range v.pushed {
		lo, hi := e.numIndex(rec, pp.pred).span(pp.rng)
		n += hi - lo
	}
	return n
}
