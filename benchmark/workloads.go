package main

import (
	"math/rand"
)

// workload is one named traffic mix against a fresh oniond.
type workload struct {
	name string
	why  string
	// flags are the daemon's flags beyond -fig2 -pprof -addr; durable
	// adds -data-dir with a fresh directory.
	flags   []string
	durable bool
	// plan builds the request stream from the oracle's world and the
	// seed. prefill is sent once, in order, before warm more positions
	// of the stream warm the daemon up; the measured windows continue
	// the stream where the warm-up stopped.
	plan func(o *oracle, rng *rand.Rand) (p *loadPlan, prefill []int, warm int, err error)
	// churn runs the stream open-loop beside durable writes, then
	// crashes and recovers the daemon.
	churn bool
}

var executed = map[string]bool{"miss": true, "coalesced": true}

// thresholds builds n requests of a template whose answers step evenly
// from lo to hi rows.
func thresholds(o *oracle, t template, n, lo, hi int, memLimit int64) ([]request, error) {
	reqs := make([]request, n)
	for j := range reqs {
		r, err := newRequest(o, t, lo+j*(hi-lo)/n, memLimit)
		if err != nil {
			return nil, err
		}
		reqs[j] = r
	}
	return reqs, nil
}

// shuffled is a seeded random stream over n requests: every request
// once, in random order, then uniform draws.
func shuffled(rng *rand.Rand, n int) (order func(i int) int) {
	const streamLen = 1 << 16
	stream := rng.Perm(n)
	for len(stream) < streamLen {
		stream = append(stream, rng.Intn(n))
	}
	return func(i int) int { return stream[i%streamLen] }
}

func concat(groups ...[]request) []request {
	var out []request
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

func indexes(from, to int) []int {
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

const cappedLimit = 4 << 20 // memory_limit_bytes on every transport-capped request

var workloads = []*workload{
	{
		name:  "transport-miss",
		why:   "cache off, ~64-row answers: every request runs validate/plan/scan+expansion/join in internal/query and encodes almost nothing, so executor, term-closure and planner work shows here",
		flags: []string{"-cache", "-1"},
		plan: func(o *oracle, rng *rand.Rand) (*loadPlan, []int, int, error) {
			var groups [][]request
			for _, t := range []template{tmplSel, tmplJoin, tmplRoot} {
				g, err := thresholds(o, t, 64, 32, 96, 0)
				if err != nil {
					return nil, nil, 0, err
				}
				groups = append(groups, g)
			}
			reqs := concat(groups...)
			// The stream opens with every request once, so 256
			// warm-up positions leave every plan cached.
			return &loadPlan{reqs: reqs, order: shuffled(rng, len(reqs)), outcomes: executed}, nil, 256, nil
		},
	},
	{
		name:    "transport-hit",
		why:     "engine idle: 80% of requests hit a 48-query hot set in the 64-entry RAM cache, 20% cycle 48 cold queries through the disk tier; predicts no change for engine work, shows HTTP/JSON/cache cost",
		flags:   []string{"-cache", "64"},
		durable: true,
		plan: func(o *oracle, rng *rand.Rand) (*loadPlan, []int, int, error) {
			var groups [][]request
			for _, t := range []template{tmplSel, tmplJoin, tmplRoot} {
				g, err := thresholds(o, t, 32, 168, 232, 0)
				if err != nil {
					return nil, nil, 0, err
				}
				groups = append(groups, g)
			}
			reqs := concat(groups...)
			rng.Shuffle(len(reqs), func(a, b int) { reqs[a], reqs[b] = reqs[b], reqs[a] })
			// reqs[:48] are hot, reqs[48:] cold. Four hot requests in
			// rotation, then the next cold one: a hot query returns
			// after 59 other keys (it stays in the 64-entry LRU), a cold
			// one after 95 (it has been evicted to disk by then).
			order := func(i int) int {
				block, slot := i/5, i%5
				if slot == 4 {
					return 48 + block%48
				}
				return (block*4 + slot) % 48
			}
			// Prefill cold before hot: the LRU then holds the hot set
			// and the last 16 cold queries, which is the state the
			// stream keeps it in.
			prefill := append(indexes(48, 96), indexes(0, 48)...)
			return &loadPlan{reqs: reqs, order: order, outcomes: map[string]bool{"hit": true}}, prefill, 240, nil
		},
	},
	{
		name:  "transport-wide",
		why:   "cache off, ~10000-row answers (~1.6 MB JSON): projection, result materialisation and encodeRows+json dominate, joins are trivial; an encoder or per-row cost shows here and not on -miss",
		flags: []string{"-cache", "-1"},
		plan: func(o *oracle, rng *rand.Rand) (*loadPlan, []int, int, error) {
			reqs, err := thresholds(o, tmplWide, 32, 9000, 11000, 0)
			if err != nil {
				return nil, nil, 0, err
			}
			return &loadPlan{reqs: reqs, order: shuffled(rng, len(reqs)), outcomes: executed}, nil, 48, nil
		},
	},
	{
		name:  "transport-capped",
		why:   "cache off, 4-way join of ~1000 rows under a 4 MiB memory_limit_bytes: the spill ladder (hybrid grace joins, spill runs) does the work; the only place a hard-cap or reservation change shows",
		flags: []string{"-cache", "-1"},
		plan: func(o *oracle, rng *rand.Rand) (*loadPlan, []int, int, error) {
			reqs, err := thresholds(o, tmplJoin, 64, 800, 1200, cappedLimit)
			if err != nil {
				return nil, nil, 0, err
			}
			return &loadPlan{reqs: reqs, order: shuffled(rng, len(reqs)), outcomes: executed, memLimit: cappedLimit}, nil, 16, nil
		},
	},
	{
		name:    "transport-churn",
		why:     "open loop, writes beside reads: 40 queries/s while 8 durable 128-fact /mutate/s bump an epoch, so most queries pay the index heal; then SIGKILL, restart, every acknowledged fact must be readable",
		durable: true,
		churn:   true,
		plan: func(o *oracle, rng *rand.Rand) (*loadPlan, []int, int, error) {
			reqs, err := thresholds(o, tmplSel, 8, 32, 96, 0)
			if err != nil {
				return nil, nil, 0, err
			}
			order := func(i int) int { return i % len(reqs) }
			return &loadPlan{reqs: reqs, order: order, outcomes: map[string]bool{"hit": true, "miss": true, "coalesced": true}}, nil, 200, nil
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
