package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// span is the JSON form of the daemon's obs.Span, plus the benchmark's
// own client.request span wrapped around each returned tree. Offsets
// count from the root of the tree the span arrived in.
type span struct {
	Name     string  `json:"name"`
	StartNs  int64   `json:"start_ns"`
	DurNs    int64   `json:"dur_ns"`
	Attrs    []attr  `json:"attrs,omitempty"`
	Children []*span `json:"children,omitempty"`
}

type attr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// Layer metric each span's own time is charged to. A span the table
// does not know is charged to its nearest known ancestor, so a span
// the daemon adds later moves time out of a *_self_ms metric instead
// of losing it.
func spanLayer(name string) string {
	switch {
	case name == "client.request":
		return "oniond.http_self_ms"
	case name == "request":
		return "serve.request_self_ms"
	case name == "cache.hit":
		return "serve.cache_hit_ms"
	case name == "coalesce.wait":
		return "serve.coalesce_wait_ms"
	case name == "query.execute":
		return "query.execute_self_ms"
	case name == "validate":
		return "query.validate_ms"
	case name == "plan":
		return "query.plan_ms"
	case strings.HasPrefix(name, "scan "):
		return "query.scan_ms"
	case strings.HasPrefix(name, "step "), strings.HasPrefix(name, "part "), name == "build", name == "probe":
		return "query.join_ms"
	case name == "spill":
		return "query.spill_ms"
	case name == "project":
		return "query.project_ms"
	}
	return ""
}

// interval is a span flattened onto its root's clock and clipped to its
// parent, with the layer it is charged to.
type interval struct {
	start, end int64
	layer      string
	parent     int // index into the flattened slice, -1 for the root
}

func flatten(s *span, parent int, lo, hi int64, layer string, out []interval) []interval {
	start, end := max(s.StartNs, lo), min(s.StartNs+s.DurNs, hi)
	if end < start {
		end = start
	}
	if l := spanLayer(s.Name); l != "" {
		layer = l
	}
	out = append(out, interval{start, end, layer, parent})
	self := len(out) - 1
	for _, c := range s.Children {
		out = flatten(c, self, start, end, layer, out)
	}
	return out
}

// attribute charges every instant of the root span's wall clock to the
// deepest spans active at that instant: a span's self time is its
// duration minus the union of its children's intervals, and where
// sibling spans overlap (scans and join partitions run in parallel)
// the overlapped stretch is split evenly between them. The per-layer
// times therefore sum to the root's duration exactly, and whatever no
// child explains stays visible on the parent.
func attribute(root *span, into map[string]float64) {
	ivs := flatten(root, -1, root.StartNs, root.StartNs+root.DurNs, "", nil)
	cuts := make([]int64, 0, 2*len(ivs))
	for _, iv := range ivs {
		cuts = append(cuts, iv.start, iv.end)
	}
	slices.Sort(cuts)
	covered := make([]bool, len(ivs)) // has a child active in the current stretch
	for c := 0; c+1 < len(cuts); c++ {
		lo, hi := cuts[c], cuts[c+1]
		if lo == hi {
			continue
		}
		clear(covered)
		for _, iv := range ivs {
			if iv.parent >= 0 && iv.start <= lo && hi <= iv.end {
				covered[iv.parent] = true
			}
		}
		var deepest []int
		for i, iv := range ivs {
			if iv.start <= lo && hi <= iv.end && !covered[i] {
				deepest = append(deepest, i)
			}
		}
		for _, i := range deepest {
			into[ivs[i].layer] += float64(hi-lo) / float64(len(deepest))
		}
	}
}

// writeTraces stores the traced pass's span trees, one client.request
// root per traced query.
func writeTraces(dir, workload string, roots []*span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	body, err := json.Marshal(roots)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, body, 0o644)
}
