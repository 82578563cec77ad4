// Oniond is the ONION query daemon: the serving layer (internal/serve)
// exposed over HTTP/JSON, so many applications can share one articulated
// system — the paper's positioning of articulation as infrastructure
// rather than a per-program library (EDBT 2000, §2).
//
//	oniond -fig2                        # serve the Fig. 2 world on :8080
//	oniond -fig2 -addr :9000 -workers 8 -cache 4096 -timeout 2s
//	oniond -fig2 -data-dir /var/lib/onion  # durable: log+snapshot per source, recover at startup
//	oniond -smoke http://127.0.0.1:8080 # diff a live daemon against the library
//
// Endpoints (JSON in, JSON out):
//
//	POST /query      {"articulation","query","timeout_ms"?}    → vars, rows, outcome (hit|coalesced|miss), stats
//	POST /mutate     {"source","facts":[{subject,predicate,object:{kind,value}}]} → {"added"}
//	POST /articulate {"name","left","right","rules","lenient"?} → {"name","terms","bridges","skipped"?}
//	POST /snapshot                                              → per-source {"facts","epoch"} after folding logs into snapshots
//	GET  /stats                                                 → uptime, registry, epoch keys, serve counters
//	GET  /metrics                                               → Prometheus text exposition (serve, query, persist metrics)
//	GET  /healthz                                               → liveness (always 200 while the process serves)
//	GET  /readyz                                                → readiness (503 once a drain has begun)
//
// Observability: /query accepts {"trace":true} (or ?trace=1) and returns
// the request's span tree — cache lookup, admission, and the engine's
// per-step execution spans — in the response. -slow-query-threshold logs
// a JSON line with the span tree for every query over the threshold,
// -access-log logs one JSON line per request with a propagated request
// id, -pprof mounts net/http/pprof, and -check-metrics scrapes a live
// daemon's /metrics and validates the exposition (the CI smoke uses it).
//
// With -admission-cap, every executed query reserves its memory limit
// from one process-wide pool before running: under overload the daemon
// first shrinks grants (queries spill instead of swapping), then queues
// (bounded, deadline-aware), then sheds. A shed request is HTTP 429, an
// expired queue wait 503 — both with Retry-After — so clients back off
// instead of piling on.
//
// SIGINT/SIGTERM drains gracefully: /readyz flips to 503, in-flight
// requests finish under -drain-timeout, and with -data-dir a final
// snapshot folds every log so the next start replays nothing.
//
// Results are served through the epoch-keyed coalescing cache: identical
// queries at an unchanged epoch vector are cache hits, mutations through
// /mutate bump the touched source's epoch and the affected entries stop
// matching on their own.
//
// With -data-dir, every accepted mutation is appended to the source's
// fact log before it is acknowledged, logs periodically fold into
// snapshots, startup replays snapshot + log tail (truncating a torn
// tail from a crash mid-append), and evicted positive cache entries
// demote to a disk tier under <data-dir>/cache instead of being
// recomputed. A kill -9 and restart yields the same rows.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	fig2 := flag.Bool("fig2", false, "preload the paper's Fig. 2 transport world (carrier/factory/transport)")
	workers := flag.Int("workers", 0, "scan worker pool per query (0 = GOMAXPROCS)")
	partitions := flag.Int("partitions", 0, "join hash partitions per step (0 = sized by the planner from each step's estimate, at most 4x the workers)")
	cacheEntries := flag.Int("cache", 0, "result cache entries (0 = default, negative disables)")
	diskCache := flag.Int("disk-cache", 0, "disk cache tier entries under <data-dir>/cache (0 = default, negative disables; needs -data-dir)")
	timeout := flag.Duration("timeout", 5*time.Second, "default per-request deadline (0 disables)")
	dataDir := flag.String("data-dir", "", "durable mode: persist fact logs and snapshots here, recover at startup")
	admissionCap := flag.Int64("admission-cap", 0, "admission control: aggregate execution-memory pool in bytes (0 disables)")
	admissionQueue := flag.Int("admission-queue", 0, "admission queue length (0 = default, negative disables queuing; needs -admission-cap)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain deadline on SIGINT/SIGTERM")
	smoke := flag.String("smoke", "", "smoke-test mode: POST the Fig. 2 query to this base URL, diff against the library result, and exit")
	checkMetrics := flag.String("check-metrics", "", "check mode: scrape <URL>/metrics, validate the Prometheus exposition and key series, and exit")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	slowQuery := flag.Duration("slow-query-threshold", 0, "log a JSON line with the span tree for queries at or over this duration (0 disables; forces per-query tracing)")
	accessLog := flag.Bool("access-log", false, "log one JSON line per HTTP request (method, path, outcome, duration, bytes, request id)")
	flag.Parse()

	if *smoke != "" {
		if err := runSmoke(*smoke); err != nil {
			fmt.Fprintf(os.Stderr, "oniond smoke: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("oniond smoke: daemon result identical to library result")
		return
	}
	if *checkMetrics != "" {
		if err := runCheckMetrics(*checkMetrics); err != nil {
			fmt.Fprintf(os.Stderr, "oniond check-metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("oniond check-metrics: exposition valid, key series present")
		return
	}

	sys := core.NewSystem()
	if *fig2 {
		if err := loadFig2(sys); err != nil {
			log.Fatalf("oniond: loading Fig. 2 world: %v", err)
		}
	}
	if *dataDir != "" {
		stats, err := sys.OpenDir(*dataDir)
		if err != nil {
			log.Fatalf("oniond: opening data dir %s: %v", *dataDir, err)
		}
		for _, r := range stats.Recovered {
			if r.TruncatedBytes > 0 {
				log.Printf("oniond: recovered %s: %d facts at epoch %d (truncated %d-byte torn log tail)",
					r.Name, r.Facts, r.Epoch, r.TruncatedBytes)
			} else {
				log.Printf("oniond: recovered %s: %d facts at epoch %d", r.Name, r.Facts, r.Epoch)
			}
		}
		for _, name := range stats.Bootstrapped {
			log.Printf("oniond: bootstrapped %s: first snapshot written", name)
		}
		for _, name := range stats.Skipped {
			log.Printf("oniond: skipped on-disk state for unregistered source %s", name)
		}
	}
	svc := serve.New(sys, serve.Options{
		CacheEntries:      *cacheEntries,
		DefaultTimeout:    *timeout,
		Exec:              query.Options{Workers: *workers, Partitions: *partitions},
		AdmissionCapBytes: *admissionCap,
		AdmissionQueue:    *admissionQueue,
	})
	if *dataDir != "" && *diskCache >= 0 {
		if err := svc.EnableDiskCache(filepath.Join(*dataDir, "cache"), *diskCache); err != nil {
			log.Fatalf("oniond: disk cache tier: %v", err)
		}
	}
	handler := newServer(svc)
	handler.pprofOn = *pprofOn
	handler.slowQuery = *slowQuery
	handler.accessLog = *accessLog
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler.routes(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
	}
	log.Printf("oniond: listening on %s (fig2=%v, cache=%d, timeout=%s, data-dir=%q, admission-cap=%d)",
		*addr, *fig2, *cacheEntries, *timeout, *dataDir, *admissionCap)

	// Serve until a shutdown signal, then drain in-flight requests under
	// the drain deadline and — in durable mode — fold every log into a
	// final snapshot, so the next start replays nothing.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatalf("oniond: serve: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	log.Printf("oniond: shutdown signal; draining (deadline %s)", *drainTimeout)
	handler.ready.Store(false) // /readyz flips 503: load balancers stop sending
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("oniond: drain incomplete: %v", err)
	}
	if *dataDir != "" {
		if _, err := sys.SnapshotAll(); err != nil {
			log.Printf("oniond: final snapshot: %v", err)
		} else {
			log.Printf("oniond: final snapshot written")
		}
	}
	log.Printf("oniond: stopped")
}

// loadFig2 registers the running example: carrier and factory with their
// KBs, articulated into transport with the paper's conversion functions.
func loadFig2(sys *core.System) error {
	if err := sys.Register(fixtures.Carrier()); err != nil {
		return err
	}
	if err := sys.Register(fixtures.Factory()); err != nil {
		return err
	}
	if err := sys.RegisterKB(fixtures.CarrierKB()); err != nil {
		return err
	}
	if err := sys.RegisterKB(fixtures.FactoryKB()); err != nil {
		return err
	}
	_, err := sys.Articulate(fixtures.ArtName, "carrier", "factory", fixtures.TransportRules(), fixtures.GenOptions())
	return err
}

// smokeQuery is the Fig. 2 query the CI smoke step drives end to end.
const smokeQuery = "SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p"

// runSmoke drives a running daemon (started with -fig2) over HTTP and
// diffs its /query answer against the same query executed in-process by
// the library — the daemon must be a transparent serving shell. It
// retries briefly so CI can start the daemon and the smoke in parallel.
func runSmoke(baseURL string) error {
	// Wait for the daemon to come up.
	client := &http.Client{Timeout: 10 * time.Second}
	var lastErr error
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(200 * time.Millisecond) {
		resp, err := client.Get(baseURL + "/stats")
		if err != nil {
			lastErr = err
			continue
		}
		resp.Body.Close()
		lastErr = nil
		break
	}
	if lastErr != nil {
		return fmt.Errorf("daemon never came up at %s: %w", baseURL, lastErr)
	}

	// The library-side expectation, computed in-process.
	sys := core.NewSystem()
	if err := loadFig2(sys); err != nil {
		return err
	}
	want, err := sys.Query(fixtures.ArtName, smokeQuery)
	if err != nil {
		return err
	}

	// Ask the daemon twice: both answers must match the library, and the
	// second must come from the result cache (a repeat against the same
	// epoch vector is a hit whatever happened before).
	for i := 0; i < 2; i++ {
		body, _ := json.Marshal(queryRequest{Articulation: fixtures.ArtName, Query: smokeQuery})
		resp, err := client.Post(baseURL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("query %d: HTTP %d: %s", i, resp.StatusCode, payload)
		}
		var got queryResponse
		if err := json.Unmarshal(payload, &got); err != nil {
			return fmt.Errorf("query %d: decoding response: %w", i, err)
		}
		if !reflect.DeepEqual(got.Vars, want.Vars) {
			return fmt.Errorf("query %d: vars %v, library %v", i, got.Vars, want.Vars)
		}
		if err := rowsMatch(got.Rows, want.Rows); err != nil {
			return fmt.Errorf("query %d: daemon rows diverge from library rows: %w", i, err)
		}
		if i == 1 && got.Outcome != "hit" {
			return fmt.Errorf("repeat query outcome %q, want cache hit", got.Outcome)
		}
	}
	return nil
}

// rowsMatch decodes the served rows and compares them cell by cell to
// the library's, kind-strictly (kb.Value.Equal): a term where the
// library has a number is a divergence even when both print alike.
func rowsMatch(got [][]valueJSON, want [][]kb.Value) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, library %d", len(got), len(want))
	}
	for i, row := range got {
		if len(row) != len(want[i]) {
			return fmt.Errorf("row %d: %d cells, library %d", i, len(row), len(want[i]))
		}
		for j, cell := range row {
			v, err := decodeValue(cell)
			if err != nil {
				return fmt.Errorf("row %d cell %d: %w", i, j, err)
			}
			if !v.Equal(want[i][j]) {
				return fmt.Errorf("row %d cell %d: %v, library %v", i, j, v, want[i][j])
			}
		}
	}
	return nil
}

// runCheckMetrics scrapes a live daemon's /metrics and fails unless the
// payload is a valid Prometheus text exposition (internal/obs's
// validator: HELP/TYPE syntax, unique series, self-consistent histogram
// bucket ladders) that carries the key families from every instrumented
// layer — and, for the serving layer, series that actually counted
// traffic. CI runs it right after the -smoke step, so at least two
// queries (one miss, one hit) must be on the books.
func runCheckMetrics(baseURL string) error {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		return fmt.Errorf("content type %q, want text/plain exposition", ct)
	}
	if err := obs.ValidateExposition(bytes.NewReader(body)); err != nil {
		return fmt.Errorf("invalid exposition: %w", err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE onion_serve_query_seconds histogram",
		"# TYPE onion_serve_cache_events_total counter",
		"# TYPE onion_serve_admission_grants_total counter",
		"# TYPE onion_serve_breaker_state gauge",
		"# TYPE onion_query_executions_total counter",
		"# TYPE onion_query_budget_peak_bytes histogram",
		"# TYPE onion_persist_append_seconds histogram",
		"# TYPE onion_persist_torn_tail_recoveries_total counter",
	} {
		if !strings.Contains(text, want) {
			return fmt.Errorf("missing family: %s", want)
		}
	}
	for _, series := range []string{"onion_serve_query_seconds_count", "onion_query_executions_total"} {
		if !seriesPositive(text, series) {
			return fmt.Errorf("series %s counted no traffic", series)
		}
	}
	return nil
}

// seriesPositive reports whether any sample of the named series (any
// label set) has a positive value.
func seriesPositive(text, name string) bool {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil && v > 0 {
			return true
		}
	}
	return false
}
