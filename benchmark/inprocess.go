package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/kb"
	"repro/internal/persist"
	"repro/internal/query"
)

// inProcessMetrics times public functions of single layers directly,
// for the layers the daemon records no spans in. query.Parse runs over
// the workload's own texts; the write path is timed on the churn
// workload only, with its own batches, onto state preloaded like the
// daemon's.
func inProcessMetrics(rep report, cfg config, w *workload, p *loadPlan, load []batch) {
	const parseRounds = 20
	t0 := time.Now()
	for round := 0; round < parseRounds; round++ {
		for _, r := range p.reqs {
			if _, err := query.Parse(r.text); err != nil {
				panic(err) // the daemon has answered this text
			}
		}
	}
	parses := parseRounds * len(p.reqs)
	rep.set("query.parse_us", float64(time.Since(t0).Microseconds())/float64(parses), parses)
	if !w.churn {
		return
	}
	if err := writePathMetrics(rep, cfg, load); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: in-process write-path timing skipped: %v\n", err)
	}
}

func writePathMetrics(rep report, cfg config, load []batch) error {
	batches := make([]batch, int(cfg.window/churnMutatePeriod))
	facts := 0
	for i := range batches {
		batches[i] = churnBatch(cfg.seed, i)
		facts += len(batches[i].facts)
	}
	if facts == 0 {
		return nil
	}

	// kb: the store alone, no journal.
	store := kb.New("carrier")
	for _, b := range load {
		if b.source != "carrier" {
			continue
		}
		for _, f := range b.facts {
			if err := store.Add(f.Subject, f.Predicate, f.Object); err != nil {
				return err
			}
		}
	}
	t0 := time.Now()
	for _, b := range batches {
		for _, f := range b.facts {
			if err := store.Add(f.Subject, f.Predicate, f.Object); err != nil {
				return err
			}
		}
	}
	rep.set("kb.add_us_per_fact", float64(time.Since(t0).Nanoseconds())/1e3/float64(facts), facts)

	// persist: the log alone.
	dir, err := os.MkdirTemp(cfg.buildDir, "inproc-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pdir, err := persist.Open(filepath.Join(dir, "log-only"))
	if err != nil {
		return err
	}
	src, err := pdir.Source("carrier")
	if err != nil {
		return err
	}
	defer src.Close()
	epoch := uint64(0)
	t0 = time.Now()
	for _, b := range batches {
		for _, f := range b.facts {
			epoch++
			if err := src.Append(f, epoch); err != nil {
				return err
			}
		}
	}
	rep.set("persist.append_us_per_fact", float64(time.Since(t0).Nanoseconds())/1e3/float64(facts), facts)

	// core: the durable system's whole AddFacts, per batch. What it
	// costs beyond kb and persist is lock wait, epoch bump and engine
	// invalidation.
	sys, err := fig2System()
	if err != nil {
		return err
	}
	if _, err := sys.OpenDir(filepath.Join(dir, "system")); err != nil {
		return err
	}
	for _, b := range load {
		if _, err := sys.AddFacts(b.source, b.facts); err != nil {
			return err
		}
	}
	var perBatch []float64
	for _, b := range batches {
		t0 := time.Now()
		if _, err := sys.AddFacts(b.source, b.facts); err != nil {
			return err
		}
		perBatch = append(perBatch, ms(time.Since(t0)))
	}
	rep.set("core.addfacts_ms_per_batch", median(perBatch), len(perBatch))
	return nil
}
