package skat

import (
	"sort"

	"repro/internal/ontology"
	"repro/internal/rules"
)

// Decision is an expert's verdict on one suggestion.
type Decision int

// Expert decisions: accept the suggested rule, reject the correspondence
// (it becomes forbidden for later rounds), or replace the suggestion with
// a modified rule (e.g. routing it through a new articulation term).
const (
	Accept Decision = iota
	Reject
	Modify
)

// Expert is the domain interoperation expert in the iterative loop of
// §2.4. Implementations range from interactive CLIs to the scripted
// experts below.
type Expert interface {
	// Review returns the decision for one suggestion; for Modify it also
	// returns the replacement rule.
	Review(s Suggestion) (Decision, rules.Rule)
	// Satisfied reports whether the expert wants to stop iterating after
	// the given round (the paper: "this process is iteratively repeated
	// until the expert is satisfied").
	Satisfied(round int, newlyAccepted int) bool
}

// SessionStats summarises a SKAT session: rounds run, suggestions made,
// and the expert's reviews and decisions.
type SessionStats struct {
	Rounds    int
	Reviewed  int
	Accepted  int
	Rejected  int
	Modified  int
	Suggested int
}

// RunSession drives the propose → review → re-propose loop and returns
// the accumulated, validated articulation rule set. Rejected pairs are fed
// back as Forbid rules so later rounds do not resurface them; accepted
// pairs are fed back as Force rules so structural propagation can build on
// them.
func RunSession(o1, o2 *ontology.Ontology, cfg Config, expert Expert) (*rules.Set, SessionStats) {
	var stats SessionStats
	accepted := rules.NewSet()
	decided := make(map[pairKey]bool)

	for round := 1; ; round++ {
		stats.Rounds = round
		suggestions := Propose(o1, o2, cfg)
		stats.Suggested += len(suggestions)

		newlyAccepted := 0
		for _, s := range suggestions {
			key := pairKey{s.Left.Term, s.Right.Term}
			if decided[key] {
				continue
			}
			decided[key] = true
			stats.Reviewed++
			decision, replacement := expert.Review(s)
			switch decision {
			case Accept:
				accepted.Add(s.Rule())
				cfg.ExpertRules = append(cfg.ExpertRules, ExpertRule{Kind: Force, Left: s.Left.Term, Right: s.Right.Term})
				stats.Accepted++
				newlyAccepted++
			case Modify:
				accepted.Add(replacement)
				stats.Modified++
				newlyAccepted++
			case Reject:
				cfg.ExpertRules = append(cfg.ExpertRules, ExpertRule{Kind: Forbid, Left: s.Left.Term, Right: s.Right.Term})
				stats.Rejected++
			}
		}
		if expert.Satisfied(round, newlyAccepted) || newlyAccepted == 0 {
			break
		}
	}
	return accepted, stats
}

// ThresholdExpert is a scripted expert that accepts every suggestion at or
// above Accept and rejects the rest — modelling an expert who trusts the
// tool's ranking.
type ThresholdExpert struct {
	AcceptAt  float64
	MaxRounds int
}

// Review implements Expert.
func (e ThresholdExpert) Review(s Suggestion) (Decision, rules.Rule) {
	if s.Score >= e.AcceptAt {
		return Accept, rules.Rule{}
	}
	return Reject, rules.Rule{}
}

// Satisfied implements Expert.
func (e ThresholdExpert) Satisfied(round, newlyAccepted int) bool {
	max := e.MaxRounds
	if max == 0 {
		max = 3
	}
	return round >= max
}

// OracleExpert is a scripted expert that knows the ground-truth
// correspondences (used by the workload generator's planted matches):
// it accepts a suggestion exactly when the truth table contains it.
type OracleExpert struct {
	// Truth maps left-ontology terms to their true right-ontology terms.
	Truth map[string]string
	// MaxRounds caps iteration; default 3.
	MaxRounds int
}

// Review implements Expert.
func (e OracleExpert) Review(s Suggestion) (Decision, rules.Rule) {
	if e.Truth[s.Left.Term] == s.Right.Term {
		return Accept, rules.Rule{}
	}
	return Reject, rules.Rule{}
}

// Satisfied implements Expert.
func (e OracleExpert) Satisfied(round, newlyAccepted int) bool {
	max := e.MaxRounds
	if max == 0 {
		max = 3
	}
	return round >= max
}

// Metrics reports suggestion quality against a ground truth.
type Metrics struct {
	Precision float64
	Recall    float64
	F1        float64
	TruePos   int
	FalsePos  int
	FalseNeg  int
}

// Evaluate scores suggestions against ground-truth correspondences
// (left term → right term). A suggestion counts as correct when the truth
// table maps its left term to its right term.
func Evaluate(suggestions []Suggestion, truth map[string]string) Metrics {
	var m Metrics
	seen := make(map[string]bool, len(suggestions))
	for _, s := range suggestions {
		if truth[s.Left.Term] == s.Right.Term {
			if !seen[s.Left.Term] {
				m.TruePos++
				seen[s.Left.Term] = true
			}
		} else {
			m.FalsePos++
		}
	}
	for l := range truth {
		if !seen[l] {
			m.FalseNeg++
		}
	}
	if m.TruePos+m.FalsePos > 0 {
		m.Precision = float64(m.TruePos) / float64(m.TruePos+m.FalsePos)
	}
	if m.TruePos+m.FalseNeg > 0 {
		m.Recall = float64(m.TruePos) / float64(m.TruePos+m.FalseNeg)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// TopPerLeft keeps only the best-scored suggestion per left term — the
// one-to-one discipline an expert usually imposes before accepting.
func TopPerLeft(suggestions []Suggestion) []Suggestion {
	best := make(map[string]Suggestion)
	for _, s := range suggestions {
		cur, ok := best[s.Left.Term]
		if !ok || s.Score > cur.Score {
			best[s.Left.Term] = s
		}
	}
	out := make([]Suggestion, 0, len(best))
	for _, s := range best {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Left.Less(out[j].Left)
	})
	return out
}
