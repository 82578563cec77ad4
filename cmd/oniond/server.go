package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/articulation"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/serve"
)

// valueJSON is the wire form of a kb.Value: a kind tag plus a value
// whose JSON type matches the kind ("term"/"string" carry a string,
// "number" a float). /query writes it with appendValue (encode.go); this
// type only decodes.
type valueJSON struct {
	Kind  string          `json:"kind"`
	Value json.RawMessage `json:"value"`
}

// decodeValue reads a wire value. JSON null is refused for every kind:
// json.Unmarshal would leave the zero value in place, silently storing
// 0 or "" — and null is what /query sends for a non-finite number.
func decodeValue(v valueJSON) (kb.Value, error) {
	switch v.Kind {
	case "number", "string", "term":
	default:
		return kb.Value{}, fmt.Errorf("unknown value kind %q", v.Kind)
	}
	if string(v.Value) == "null" {
		return kb.Value{}, fmt.Errorf("%s value: null", v.Kind)
	}
	if v.Kind == "number" {
		var n float64
		if err := json.Unmarshal(v.Value, &n); err != nil {
			return kb.Value{}, fmt.Errorf("number value: %w", err)
		}
		return kb.Number(n), nil
	}
	var s string
	if err := json.Unmarshal(v.Value, &s); err != nil {
		return kb.Value{}, fmt.Errorf("%s value: %w", v.Kind, err)
	}
	if v.Kind == "string" {
		return kb.String(s), nil
	}
	return kb.Term(s), nil
}

type queryRequest struct {
	Articulation string `json:"articulation"`
	Query        string `json:"query"`
	// TimeoutMS bounds this request; 0 falls back to the service default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MemoryLimitBytes caps this request's execution memory; joins
	// degrade to grace-hash spilling instead of exceeding it. 0 falls
	// back to the service default; a tighter service default wins.
	MemoryLimitBytes int64 `json:"memory_limit_bytes,omitempty"`
	// Trace requests the span tree in the response ("?trace=1" on the
	// URL does the same): cache lookup, admission, and on a miss the
	// engine's full execution subtree.
	Trace bool `json:"trace,omitempty"`
}

// queryResponse is the /query body as clients decode it;
// encodeQueryResponse writes it without building one.
type queryResponse struct {
	Vars    []string      `json:"vars"`
	Rows    [][]valueJSON `json:"rows"`
	Outcome string        `json:"outcome"`
	Stats   query.Stats   `json:"stats"`
	// Trace is the request's span tree, present only when it was asked
	// for (body {"trace":true} or ?trace=1).
	Trace *obs.Span `json:"trace,omitempty"`
}

type factJSON struct {
	Subject   string    `json:"subject"`
	Predicate string    `json:"predicate"`
	Object    valueJSON `json:"object"`
}

type mutateRequest struct {
	Source string     `json:"source"`
	Facts  []factJSON `json:"facts"`
}

type mutateResponse struct {
	Added int `json:"added"`
}

type articulateRequest struct {
	Name    string `json:"name"`
	Left    string `json:"left"`
	Right   string `json:"right"`
	Rules   string `json:"rules"`
	Lenient bool   `json:"lenient,omitempty"`
}

type articulateResponse struct {
	Name    string   `json:"name"`
	Terms   int      `json:"terms"`
	Bridges int      `json:"bridges"`
	Skipped []string `json:"skipped,omitempty"`
	// MissingFuncs names the conversion functions the rules use that the
	// daemon has not registered: their bridges exist, but convert nothing.
	MissingFuncs []string `json:"missing_funcs,omitempty"`
}

type statsResponse struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Ontologies    []string          `json:"ontologies"`
	Articulations []string          `json:"articulations"`
	Epochs        map[string]string `json:"epochs"` // articulation → hex epoch key
	Serve         serve.Stats       `json:"serve"`
}

type snapshotResponse struct {
	Root    string                       `json:"root"`
	Sources map[string]core.SnapshotInfo `json:"sources"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// server routes the daemon's endpoints over one serve.Service.
type server struct {
	svc     *serve.Service
	started time.Time
	// ready gates /readyz: true while serving, flipped false when the
	// drain starts so load balancers stop routing new traffic here.
	ready atomic.Bool

	// slowQuery, when > 0, forces tracing on every query and logs one
	// JSON line (with the span tree) per query at or over the threshold.
	slowQuery time.Duration
	// accessLog, when true, logs one JSON line per HTTP request.
	accessLog bool
	// pprofOn mounts net/http/pprof under /debug/pprof/.
	pprofOn bool
	// reqSeq numbers requests for the per-request id.
	reqSeq atomic.Uint64
	// idPrefix is the request ids' fixed head: the start time in hex
	// and a dash.
	idPrefix string
}

func newServer(svc *serve.Service) *server {
	s := &server{svc: svc, started: time.Now()}
	s.idPrefix = strconv.FormatInt(s.started.UnixNano(), 16) + "-"
	s.ready.Store(true)
	return s
}

// requestID formats the id of request number seq: idPrefix then seq
// zero-padded to at least six digits, as "%x-%06d" would.
func (s *server) requestID(seq uint64) string {
	var buf [48]byte
	b := append(buf[:0], s.idPrefix...)
	for p := uint64(100000); p > 1 && seq < p; p /= 10 {
		b = append(b, '0')
	}
	b = strconv.AppendUint(b, seq, 10)
	return string(b)
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /mutate", s.handleMutate)
	mux.HandleFunc("POST /articulate", s.handleArticulate)
	mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", obs.Handler(obs.Default, s.svc.Metrics()))
	if s.pprofOn {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s.middleware(mux)
}

// reqInfo carries per-request metadata between the middleware and the
// handlers: the request id flows down (and into trace spans), the
// articulation and outcome flow back up for the access log.
type reqInfo struct {
	id           string
	articulation string
	outcome      string
}

type reqInfoKey struct{}

// requestInfo returns the request's reqInfo, nil outside the middleware
// (direct handler tests).
func requestInfo(ctx context.Context) *reqInfo {
	info, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return info
}

// statusWriter records what actually went over the wire.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// accessLogLine is the JSON shape of one access-log entry.
type accessLogLine struct {
	RequestID    string  `json:"request_id"`
	Method       string  `json:"method"`
	Path         string  `json:"path"`
	Status       int     `json:"status"`
	Articulation string  `json:"articulation,omitempty"`
	Outcome      string  `json:"outcome,omitempty"`
	DurationMS   float64 `json:"duration_ms"`
	Bytes        int64   `json:"bytes"`
}

// middleware assigns every request an id (which handleQuery propagates
// into trace spans) and, with -access-log, emits one JSON line per
// request after it completes.
func (s *server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		info := &reqInfo{id: s.requestID(s.reqSeq.Add(1))}
		r = r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, info))
		if !s.accessLog {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		line, err := json.Marshal(accessLogLine{
			RequestID:    info.id,
			Method:       r.Method,
			Path:         r.URL.Path,
			Status:       sw.status,
			Articulation: info.articulation,
			Outcome:      info.outcome,
			DurationMS:   float64(time.Since(t0).Nanoseconds()) / 1e6,
			Bytes:        sw.bytes,
		})
		if err == nil {
			log.Printf("access %s", line)
		}
	})
}

// handleHealthz is liveness: the process is up and able to answer.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 while accepting traffic, 503 once the
// drain has begun (or before serving starts).
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func readJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !readJSON(w, r, &req) {
		return
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	info := requestInfo(ctx)
	lim := serve.Limits{MemoryBytes: req.MemoryLimitBytes}
	// The client gets the span tree only when it asked; the slow-query
	// log needs one for every query it might report, so a configured
	// threshold forces tracing on the service call either way.
	wantTrace := req.Trace || r.URL.Query().Get("trace") == "1"
	var root *obs.Span
	if wantTrace || s.slowQuery > 0 {
		root = obs.NewTrace("request")
	}
	var res *query.Result
	outcome := serve.OutcomeMiss
	t0 := time.Now()
	q, err := query.Parse(req.Query)
	if err == nil {
		res, outcome, err = s.svc.Answer(ctx, req.Articulation, q, lim, root)
	} else {
		// Answer annotates the roots it sees; one that fails to parse
		// still names its articulation in the slow-query log.
		root.SetAttr("articulation", req.Articulation)
	}
	root.End()
	if info != nil {
		root.SetAttr("request_id", info.id)
	}
	dur := time.Since(t0)
	if info != nil {
		info.articulation = req.Articulation
		info.outcome = outcome.String()
	}
	if s.slowQuery > 0 && dur >= s.slowQuery {
		s.logSlowQuery(&req, info, outcome, dur, res, root)
	}
	if err != nil {
		status := queryErrorStatus(err)
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, err)
		return
	}
	if !wantTrace {
		root = nil
	}
	body, err := encodeQueryResponse(res, outcome.String(), root)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a failed write means the client is gone; no one to tell
}

// slowQueryLine is the JSON shape of one slow-query log entry; the span
// tree pinpoints which stage (admission wait, a scan, a spilling join)
// spent the time.
type slowQueryLine struct {
	RequestID    string    `json:"request_id,omitempty"`
	Articulation string    `json:"articulation"`
	Query        string    `json:"query"`
	Outcome      string    `json:"outcome"`
	DurationMS   float64   `json:"duration_ms"`
	Rows         int       `json:"rows"`
	Trace        *obs.Span `json:"trace,omitempty"`
}

func (s *server) logSlowQuery(req *queryRequest, info *reqInfo, outcome serve.Outcome, dur time.Duration, res *query.Result, root *obs.Span) {
	entry := slowQueryLine{
		Articulation: req.Articulation,
		Query:        req.Query,
		Outcome:      outcome.String(),
		DurationMS:   float64(dur.Nanoseconds()) / 1e6,
		Trace:        root,
	}
	if info != nil {
		entry.RequestID = info.id
	}
	if res != nil {
		entry.Rows = len(res.Rows)
	}
	line, err := json.Marshal(entry)
	if err == nil {
		log.Printf("slow-query %s", line)
	}
}

// queryErrorStatus maps a query error to its HTTP status. Admission
// refusals come first: a shed request is the client's cue to back off
// (429), a queue wait that expired is the server's overload (503) —
// and ErrQueueTimeout wraps the context error, so it must be checked
// before the generic deadline → 504 mapping.
func queryErrorStatus(err error) int {
	switch {
	case errors.Is(err, serve.ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrQueueTimeout):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadRequest
	}
}

func (s *server) handleMutate(w http.ResponseWriter, r *http.Request) {
	var req mutateRequest
	if !readJSON(w, r, &req) {
		return
	}
	facts := make([]kb.Fact, len(req.Facts))
	for i, f := range req.Facts {
		obj, err := decodeValue(f.Object)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("fact %d: %w", i, err))
			return
		}
		facts[i] = kb.Fact{Subject: f.Subject, Predicate: f.Predicate, Object: obj}
	}
	added, err := s.svc.AddFacts(req.Source, facts)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, mutateResponse{Added: added})
}

func (s *server) handleArticulate(w http.ResponseWriter, r *http.Request) {
	var req articulateRequest
	if !readJSON(w, r, &req) {
		return
	}
	set, err := rules.ParseSetString(req.Rules)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.svc.System().Articulate(req.Name, req.Left, req.Right, set,
		articulation.Options{Lenient: req.Lenient})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := articulateResponse{
		Name:         req.Name,
		Terms:        res.Art.Ont.NumTerms(),
		Bridges:      len(res.Art.Bridges),
		MissingFuncs: res.MissingFuncs,
	}
	for _, sk := range res.Skipped {
		resp.Skipped = append(resp.Skipped, fmt.Sprintf("%s: %s", sk.Rule, sk.Reason))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSnapshot folds every durable source's log into a fresh snapshot
// (bounding the next recovery's replay) and reports the persisted world.
// Fails with 409 when the daemon runs without -data-dir.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	info, err := s.svc.System().SnapshotAll()
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, snapshotResponse{Root: s.svc.System().PersistRoot(), Sources: info})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	sys := s.svc.System()
	arts := sys.Articulations()
	epochs := make(map[string]string, len(arts))
	for _, a := range arts {
		if key, err := sys.QueryEpochKey(a); err == nil {
			epochs[a] = fmt.Sprintf("%x", key)
		}
	}
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Ontologies:    sys.Ontologies(),
		Articulations: arts,
		Epochs:        epochs,
		Serve:         s.svc.Stats(),
	})
}
