package algebra

import (
	"fmt"

	"repro/internal/articulation"
	"repro/internal/graph"
	"repro/internal/ontology"
	"repro/internal/rules"
)

// DiffMode selects between the paper's two difference readings (§5.3),
// which coincide only under particular edge orientations;
// TestDifferenceFormalSemantics and TestDifferenceExampleSemantics pin
// each.
type DiffMode int

const (
	// DiffFormal is the paper's formal definition: keep n ∈ O1 only if n
	// is not determined to exist in O2 and no path leads from n to any
	// node determined to exist in O2.
	DiffFormal DiffMode = iota
	// DiffExample is the worked example's reading: delete the determined
	// nodes and every node reachable from them that is not anchored by a
	// path from some unaffected node.
	DiffExample
)

// Options configure the binary operators.
type Options struct {
	// ArtName names the generated articulation ontology; default
	// "articulation".
	ArtName string
	// UnionName names the unified ontology; default "o1+o2".
	UnionName string
	// Gen passes through to the articulation generator.
	Gen articulation.Options
	// DiffMode selects the difference semantics.
	DiffMode DiffMode
}

func (o Options) artName() string {
	if o.ArtName == "" {
		return "articulation"
	}
	return o.ArtName
}

// UnionResult carries the unified ontology and the articulation that
// connects its parts.
type UnionResult struct {
	// Ont is the unified ontology OU: qualified copies of both sources,
	// the articulation ontology, and the bridge edges (§5.1). It is
	// computed dynamically and never stored by ONION proper — the result
	// exists so queries and downstream composition can run against it.
	Ont *ontology.Ontology
	// Art is the articulation generated along the way.
	Art *articulation.Articulation
}

// Union is O1 ∪rules O2 (§5.1): N = N1 ∪ N2 ∪ NA, E = E1 ∪ E2 ∪ EA ∪
// BridgeEdges, with all terms qualified by their ontology of origin.
func Union(o1, o2 *ontology.Ontology, set *rules.Set, opts Options) (*UnionResult, error) {
	res, err := articulation.Generate(opts.artName(), o1, o2, set, opts.Gen)
	if err != nil {
		return nil, fmt.Errorf("algebra: union: %w", err)
	}
	return UnionWith(o1, o2, res.Art, opts)
}

// UnionWith builds the unified ontology from a pre-generated articulation.
func UnionWith(o1, o2 *ontology.Ontology, art *articulation.Articulation, opts Options) (*UnionResult, error) {
	name := opts.UnionName
	if name == "" {
		name = o1.Name() + "+" + o2.Name()
	}
	u := ontology.New(name)
	for _, src := range []*ontology.Ontology{o1, o2, art.Ont} {
		if err := merge(u, Qualify(src)); err != nil {
			return nil, err
		}
	}
	for _, b := range art.Bridges {
		if err := u.Relate(b.From.String(), b.Label, b.To.String()); err != nil {
			return nil, fmt.Errorf("algebra: union: bridge %v: %w", b, err)
		}
	}
	return &UnionResult{Ont: u, Art: art}, nil
}

// Intersection is O1 ∩rules O2 (§5.2): the articulation ontology OA alone.
// Bridges to source terms are deliberately excluded so the result is a
// self-contained ontology that composes further — "this operation is
// central to our scalable articulation concepts".
func Intersection(o1, o2 *ontology.Ontology, set *rules.Set, opts Options) (*ontology.Ontology, error) {
	res, err := articulation.Generate(opts.artName(), o1, o2, set, opts.Gen)
	if err != nil {
		return nil, fmt.Errorf("algebra: intersection: %w", err)
	}
	return res.Art.Ont.Clone(), nil
}

// Difference is O1 −rules O2 (§5.3): the terms and relationships of O1 not
// determined to exist in O2. Like the union it is computed dynamically and
// not stored. Its purpose is maintenance: changes inside the difference
// never require articulation updates.
func Difference(o1, o2 *ontology.Ontology, set *rules.Set, opts Options) (*ontology.Ontology, error) {
	res, err := articulation.Generate(opts.artName(), o1, o2, set, opts.Gen)
	if err != nil {
		return nil, fmt.Errorf("algebra: difference: %w", err)
	}
	return DifferenceWith(o1, o2, res.Art, opts)
}

// DifferenceWith computes O1 − O2 against a pre-generated articulation.
func DifferenceWith(o1, o2 *ontology.Ontology, art *articulation.Articulation, opts Options) (*ontology.Ontology, error) {
	determined := DeterminedTerms(art, o1.Name(), o2.Name())
	g := o1.Graph()

	detIDs := make([]graph.NodeID, 0, len(determined))
	detSet := make(map[graph.NodeID]bool, len(determined))
	for _, t := range determined {
		if id, ok := o1.Term(t); ok {
			detIDs = append(detIDs, id)
			detSet[id] = true
		}
	}

	var keep []graph.NodeID
	switch opts.DiffMode {
	case DiffFormal:
		// Keep n iff n not determined and no path n ⇝ determined node.
		// Equivalently: n not in the reverse-reachable set of the
		// determined nodes.
		doomed := make(map[graph.NodeID]bool)
		for _, id := range g.ReachableFromAnyReverse(detIDs) {
			doomed[id] = true
		}
		for _, id := range g.Nodes() {
			if !doomed[id] {
				keep = append(keep, id)
			}
		}
	case DiffExample:
		// Delete determined nodes plus nodes reachable from them that no
		// surviving anchor reaches. Anchors are nodes outside the forward
		// reach of the determined set; anything an anchor reaches without
		// passing through a determined node survives.
		reach := make(map[graph.NodeID]bool)
		for _, id := range g.ReachableFromAny(detIDs, nil) {
			reach[id] = true
		}
		var anchors []graph.NodeID
		for _, id := range g.Nodes() {
			if !reach[id] {
				anchors = append(anchors, id)
			}
		}
		live := make(map[graph.NodeID]bool)
		for _, id := range reachableAvoiding(g, anchors, detSet) {
			live[id] = true
		}
		for _, id := range g.Nodes() {
			if detSet[id] {
				continue
			}
			if !reach[id] || live[id] {
				keep = append(keep, id)
			}
		}
	default:
		return nil, fmt.Errorf("algebra: unknown difference mode %d", opts.DiffMode)
	}

	sub := g.InducedSubgraph(keep)
	sub.SetName(o1.Name() + "-" + o2.Name())
	out, err := ontology.FromGraph(sub)
	if err != nil {
		return nil, fmt.Errorf("algebra: difference: %w", err)
	}
	copyRelations(o1, out)
	return out, nil
}

// DeterminedTerms returns the terms of ontology fromOnt that the
// articulation determines to exist in toOnt: terms with a semantic-
// implication path through the articulation (bridges plus the
// articulation-internal SubclassOf/SI edges) ending at a toOnt term. In
// the paper's example the rule carrier.Car => factory.Vehicle determines
// Car to exist in factory, while factory.Vehicle is NOT determined to
// exist in carrier — implication is directed, so the conservative
// retention of §5.3 falls out naturally.
func DeterminedTerms(art *articulation.Articulation, fromOnt, toOnt string) []string {
	artName := art.Ont.Name()
	// Forward adjacency over refs: SIBridge bridges and articulation-
	// internal subclass/implication edges.
	adj := make(map[ontology.Ref][]ontology.Ref)
	for _, b := range art.Bridges {
		if b.Label != articulation.BridgeLabel {
			continue
		}
		adj[b.From] = append(adj[b.From], b.To)
	}
	ag := art.Ont.Graph()
	for _, e := range ag.Edges() {
		if e.Label != ontology.SubclassOf && e.Label != ontology.SI {
			continue
		}
		from := ontology.MakeRef(artName, ag.Label(e.From))
		to := ontology.MakeRef(artName, ag.Label(e.To))
		adj[from] = append(adj[from], to)
	}

	reachesTarget := func(start ontology.Ref) bool {
		seen := map[ontology.Ref]bool{start: true}
		stack := []ontology.Ref{start}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, m := range adj[n] {
				if m.Ont == toOnt {
					return true
				}
				if !seen[m] {
					seen[m] = true
					stack = append(stack, m)
				}
			}
		}
		return false
	}

	var out []string
	for _, t := range art.Covers(fromOnt) {
		if reachesTarget(ontology.MakeRef(fromOnt, t)) {
			out = append(out, t)
		}
	}
	return out
}

// reachableAvoiding returns nodes reachable from starts without entering
// any node of avoid; starts inside avoid contribute nothing.
func reachableAvoiding(g *graph.Graph, starts []graph.NodeID, avoid map[graph.NodeID]bool) []graph.NodeID {
	seen := make(map[graph.NodeID]bool)
	var stack []graph.NodeID
	for _, s := range starts {
		if !avoid[s] && !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	var out []graph.NodeID
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, n)
		for _, e := range g.OutEdges(n) {
			if !avoid[e.To] && !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return out
}
