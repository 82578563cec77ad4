package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fixtures"
)

// config is what one run of one workload is given.
type config struct {
	seed     int64
	vehicles int           // per source
	window   time.Duration // measured time
	setups   int           // times the set-up is repeated for setup_s
	bin      string        // built oniond
	buildDir string        // scratch space inside the checkout
	outDir   string        // where trace files go
}

// result is one run's verdict and numbers.
type result struct {
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   report `json:"metrics"`
}

// stage is a daemon that has been set up for a workload: spawned,
// loaded, warmed, with the load connections open.
type stage struct {
	d      *daemon
	dir    string   // the daemon's temp dir, and its data dir when durable
	flags  []string // as started, for the restart after the crash
	conns  []*conn
	pos    int // next position of the request stream
	artGen time.Duration
}

func (s *stage) close() {
	s.d.kill()
	for _, c := range s.conns {
		c.client.CloseIdleConnections()
	}
	os.RemoveAll(s.dir)
}

const loadConns = 2 // connections driving load; never more than the box has CPUs

// setUp brings a fresh daemon to the state the measured window starts
// from and returns how long that took: spawn → /readyz, a second
// articulation of the Fig. 2 rules, the world load through /mutate,
// and the warm-up requests.
func setUp(ctx context.Context, cfg config, w *workload, load []batch, p *loadPlan, prefill []int, warm int) (*stage, time.Duration, error) {
	dir, err := os.MkdirTemp(cfg.buildDir, "run-")
	if err != nil {
		return nil, 0, err
	}
	flags := w.flags
	if w.durable {
		flags = append([]string{"-data-dir", filepath.Join(dir, "data")}, flags...)
	}
	t0 := time.Now()
	d, err := startDaemon(cfg.bin, dir, flags...)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	st := &stage{d: d, dir: dir, flags: flags}
	fail := func(err error) (*stage, time.Duration, error) {
		st.close()
		return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	if err := d.waitReady(ctx); err != nil {
		return fail(err)
	}
	// Articulation generation is offline work nobody waits on per
	// request; it is timed here once, under a second name.
	art, _ := json.Marshal(map[string]any{
		"name": "transport-again", "left": "carrier", "right": "factory",
		"rules": fixtures.TransportRuleText, "lenient": true,
	})
	a0 := time.Now()
	if err := d.call(ctx, http.MethodPost, "/articulate", art, nil); err != nil {
		return fail(err)
	}
	st.artGen = time.Since(a0)
	for _, b := range load {
		if err := d.mutate(ctx, b); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < loadConns; i++ {
		st.conns = append(st.conns, newConn())
	}
	// Warm-up answers are checked for status only (the first answer to
	// a cached query is rightly a miss): the prefill in order on one
	// connection, then the head of the stream on both.
	fill := &loadPlan{reqs: p.reqs, order: func(i int) int { return prefill[i] }}
	filled, _ := closedLoop(ctx, d.base+"/query", st.conns[:1], fill, 0, len(prefill), 0, false, nil)
	head := &loadPlan{reqs: p.reqs, order: p.order}
	warmed, pos := closedLoop(ctx, d.base+"/query", st.conns, head, 0, warm, 0, false, nil)
	for _, s := range append(filled.samples, warmed.samples...) {
		if !s.ok {
			return fail(fmt.Errorf("a warm-up request failed\n%s", d.logTail()))
		}
	}
	st.pos = pos
	return st, time.Since(t0), ctx.Err()
}

// counters are the daemon-side readings that bracket a window.
type counters struct {
	cpu                time.Duration
	serve              map[string]float64
	mallocs, allocated float64
}

func readCounters(ctx context.Context, d *daemon, traced bool) (counters, error) {
	var c counters
	var err error
	if traced {
		// The heap profile and /stats are themselves requests; the
		// untraced run that yields the end-to-end numbers skips them.
		if c.serve, err = d.serveStats(ctx); err != nil {
			return c, err
		}
		if c.mallocs, c.allocated, err = d.heapStats(ctx); err != nil {
			return c, err
		}
	}
	c.cpu, err = d.cpuTime()
	return c, err
}

// churn rates: queries on one connection, durable writes on the other.
const (
	churnQueryPeriod  = 25 * time.Millisecond  // 40 /query per second
	churnMutatePeriod = 125 * time.Millisecond // 8 /mutate per second
)

// segment runs one stretch of a workload's load and returns what it
// produced; acked grows by every write the daemon acknowledged.
func segment(ctx context.Context, cfg config, w *workload, st *stage, p *loadPlan, dur time.Duration, traced bool, k *keeper, acked *[]batch) (win, mutates window) {
	if !w.churn {
		win, st.pos = closedLoop(ctx, st.d.base+"/query", st.conns, p, st.pos, 0, dur, traced, k)
		return win, window{}
	}
	// The writes are generated and encoded before the clock starts.
	writes := make([]batch, int(dur/churnMutatePeriod))
	for i := range writes {
		writes[i] = churnBatch(cfg.seed, len(*acked)+i)
	}
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := st.conns[1]
		mutates.samples = openLoop(ctx, start, churnMutatePeriod, len(writes), func(i int) (int, bool) {
			status, payload, err := c.post(ctx, st.d.base+"/mutate", writes[i].body)
			var reply struct {
				Added int `json:"added"`
			}
			ok := err == nil && status == http.StatusOK && json.Unmarshal(payload, &reply) == nil && reply.Added == len(writes[i].facts)
			if ok {
				*acked = append(*acked, writes[i])
			}
			return len(payload), ok
		})
	}()
	c, seen, from := st.conns[0], make(map[int]bool), st.pos
	win.samples = openLoop(ctx, start, churnQueryPeriod, int(dur/churnQueryPeriod), func(i int) (int, bool) {
		r := p.order(from + i)
		lat, payload, ok := p.send(ctx, c, st.d.base+"/query", r, traced)
		if ok && k.keep(seen, r, i, len(payload), traced) {
			win.kept = append(win.kept, kept{r, lat, bytes.Clone(payload)})
		}
		return len(payload), ok
	})
	st.pos += len(win.samples)
	wg.Wait()
	win.elapsed = time.Since(start)
	return win, mutates
}

// runWorkload runs one workload once. With traced false it measures for
// cfg.window untraced and reports every end-to-end metric; with traced
// true it measures half the window untraced and half with "trace":true
// on every query, and reports every per-layer metric.
func runWorkload(ctx context.Context, cfg config, w *workload, traced bool) (result, error) {
	load := loadBatches(cfg.seed, cfg.vehicles)
	o, err := newOracle(load)
	if err != nil {
		return result{}, err
	}
	p, prefill, warm, err := w.plan(o, rand.New(rand.NewSource(cfg.seed+1)))
	if err != nil {
		return result{}, err
	}

	var (
		st     *stage
		setups []float64
	)
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			st.close()
		}
		var took time.Duration
		if st, took, err = setUp(ctx, cfg, w, load, p, prefill, warm); err != nil {
			return result{}, err
		}
		setups = append(setups, took.Seconds())
	}
	defer st.close()

	fmt.Fprintf(os.Stderr, "benchmark: %s set-ups took %.3f s\n", w.name, setups)
	rep := report{}
	rep.set("setup_s", median(setups), len(setups))
	rep.set("articulation.generate_ms", ms(st.artGen), 1)

	untracedFor := cfg.window
	if traced {
		untracedFor /= 2
	}
	var (
		k     keeper
		acked []batch
	)
	k.traceBudget.Store(tracedKeepBytes)
	logBefore := st.dataBytes("sources")
	before, err := readCounters(ctx, st.d, traced)
	if err != nil {
		return result{}, err
	}
	win, mutates := segment(ctx, cfg, w, st, p, untracedFor, false, &k, &acked)
	after, err := readCounters(ctx, st.d, traced)
	if err != nil {
		return result{}, fmt.Errorf("%s: reading counters after the window: %w\n%s", w.name, err, st.d.logTail())
	}
	rss, err := st.d.peakRSS()
	if err != nil {
		return result{}, err
	}
	var tracedWin, tracedMutates window
	if traced {
		tracedWin, tracedMutates = segment(ctx, cfg, w, st, p, cfg.window-untracedFor, true, &k, &acked)
	}
	if err := ctx.Err(); err != nil {
		return result{}, err
	}

	res := result{Metrics: rep}
	// tally counts a stretch's operations and returns the latencies of
	// the ones that succeeded, ascending.
	tally := func(samples []sample) []time.Duration {
		var oks []time.Duration
		for _, s := range samples {
			res.Attempted++
			if s.ok {
				oks = append(oks, s.lat)
			} else {
				res.Failed++
			}
		}
		return sortedCopy(oks)
	}
	lats, mutLats := tally(win.samples), tally(mutates.samples)
	tracedLats, tracedMutLats := tally(tracedWin.samples), tally(tracedMutates.samples)

	// Rows are compared, and span trees read, only now that no clock
	// is running: decoding a megabyte answer inside the window would
	// compete with the daemon for the two CPUs.
	res.Failed += verify(p, win.kept)
	layers := readTraces(p, tracedWin.kept, &res)

	ops := len(lats) + len(mutLats)
	if !traced {
		endToEndMetrics(rep, win, lats, ops, after.cpu-before.cpu, rss)
	} else {
		clientMetrics(rep, win, lats, tracedLats, sortedCopy(append(mutLats, tracedMutLats...)))
		daemonMetrics(rep, before, after, ops)
		layers.report(rep, p.memLimit)
		inProcessMetrics(rep, cfg, w, p, load)
		if w.durable {
			rep.set("persist.data_dir_mb", float64(st.dataBytes(""))/(1<<20), 1)
		}
		if facts := len(acked) * churnBatchVehicles * 4; facts > 0 {
			rep.set("persist.log_bytes_per_fact", float64(st.dataBytes("sources")-logBefore)/float64(facts), facts)
		}
		if _, err := writeTraces(cfg.outDir, w.name, layers.roots); err != nil {
			return result{}, err
		}
	}
	if w.churn {
		if err := crashAndRecover(ctx, cfg, st, o, acked, rep, &res); err != nil {
			return result{}, err
		}
	}
	res.Correct = res.Failed == 0
	if traced {
		res.Metrics = rep.only(perLayer)
	} else {
		res.Metrics = rep.only(endToEnd)
	}
	return res, nil
}

// dataBytes is the size of the daemon's data dir, or of one directory
// in it ("sources" holds the logs and snapshots); 0 for a daemon
// without a data dir.
func (s *stage) dataBytes(sub string) int64 {
	n, _ := dirSize(filepath.Join(s.dir, "data", sub)) // no data dir reads 0
	return n
}

// verify decodes the held-back untraced answers and counts the ones
// whose rows differ from the oracle's.
func verify(p *loadPlan, held []kept) (failed int) {
	for _, h := range held {
		var reply queryReply
		if json.Unmarshal(h.payload, &reply) != nil || !reply.matches(p.reqs[h.req].want) {
			failed++
		}
	}
	return failed
}

// endToEndMetrics reports what a user of the daemon saw in the
// untraced window. ops counts the writes beside the queries, so that
// cpu_ms_per_op prices a /mutate too.
func endToEndMetrics(rep report, win window, lats []time.Duration, ops int, cpu time.Duration, rss float64) {
	n := len(lats)
	rep.set("query_qps", float64(n)/win.elapsed.Seconds(), n)
	rep.set("query_p50_ms", ms(percentile(lats, 50)), n)
	rep.set("query_p95_ms", ms(percentile(lats, 95)), n)
	if ops > 0 {
		rep.set("cpu_ms_per_op", ms(cpu)/float64(ops), ops)
	}
	rep.set("rss_peak_mb", rss, 1)
	if tail := tailPercentile(n); tail < 95 {
		fmt.Fprintf(os.Stderr, "benchmark: query_p95_ms rests on %d samples; only p%g has ten beyond it\n", n, tail)
	}
}
