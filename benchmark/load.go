package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// request is one distinct /query of a workload, with the rows the
// oracle says it must answer.
type request struct {
	text   string
	body   []byte   // untraced request body
	traced []byte   // the same with "trace": true
	want   []string // sorted row keys
}

func newRequest(o *oracle, t template, rows int, memLimit int64) (request, error) {
	threshold, err := o.threshold(t, rows)
	if err != nil {
		return request{}, err
	}
	want, err := o.expect(t, threshold)
	if err != nil {
		return request{}, err
	}
	r := request{text: t.text(threshold), want: want}
	fields := map[string]any{"articulation": "transport", "query": r.text}
	if memLimit > 0 {
		fields["memory_limit_bytes"] = memLimit
	}
	r.body, _ = json.Marshal(fields) // strings and integers always marshal
	fields["trace"] = true
	r.traced, _ = json.Marshal(fields)
	return r, nil
}

// conn is one load connection: an HTTP client that never holds more
// than one connection, and the buffer its responses are read into.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
}

func newConn() *conn {
	return &conn{client: &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

// post sends one request and reads the whole response. The returned
// payload is only valid until the connection's next post.
func (c *conn) post(ctx context.Context, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// outcomeOf finds the "outcome" member of an untraced /query response
// without decoding the rows before it, so that checking every response
// costs the client almost nothing. A JSON string cannot hold the bare
// byte sequence `"outcome"`, so the last occurrence is the member.
func outcomeOf(payload []byte) string {
	i := bytes.LastIndex(payload, []byte(`"outcome"`))
	if i < 0 {
		return ""
	}
	rest := bytes.TrimLeft(payload[i+len(`"outcome"`):], " \t\r\n:")
	if len(rest) == 0 || rest[0] != '"' {
		return ""
	}
	end := bytes.IndexByte(rest[1:], '"')
	if end < 0 {
		return ""
	}
	return string(rest[1 : 1+end])
}

// sample is one timed operation.
type sample struct {
	lat   time.Duration // closed loop: send → body read; open loop: due → body read
	lag   time.Duration // open loop: how late the generator itself was in sending it
	bytes int
	ok    bool
}

// kept is a response held back for decoding after the window: rows are
// compared, and span trees read, once the clock has stopped.
type kept struct {
	req     int
	lat     time.Duration
	payload []byte
}

// keeper decides which responses are held back. The first answer to
// every distinct request on a connection always is, and one in sixteen
// after that; traced responses are kept until a byte budget is spent,
// which bounds the client's memory on the workload whose answers run
// to megabytes.
type keeper struct {
	traceBudget atomic.Int64
}

const tracedKeepBytes = 96 << 20

// window is what one measured stretch of load produced.
type window struct {
	samples []sample
	kept    []kept
	elapsed time.Duration
}

func (w *window) merge(o window) {
	w.samples = append(w.samples, o.samples...)
	w.kept = append(w.kept, o.kept...)
}

// loadPlan is a workload's request stream: position i of the one global
// sequence sends reqs[order(i)], whichever connection it is dealt to.
type loadPlan struct {
	reqs     []request
	order    func(i int) int
	outcomes map[string]bool // answers a healthy run may carry; nil allows any
	memLimit int64           // memory_limit_bytes on every request, 0 for none
}

// send posts request r on a connection and times it to the last byte
// of the answer. ok means 200 and, on an untraced answer, an outcome
// the plan allows; a traced answer is decoded in full after the window.
func (p *loadPlan) send(ctx context.Context, c *conn, url string, r int, traced bool) (lat time.Duration, payload []byte, ok bool) {
	body := p.reqs[r].body
	if traced {
		body = p.reqs[r].traced
	}
	t0 := time.Now()
	status, payload, err := c.post(ctx, url, body)
	lat = time.Since(t0)
	ok = err == nil && status == http.StatusOK &&
		(traced || p.outcomes == nil || p.outcomes[outcomeOf(payload)])
	return lat, payload, ok
}

// closedLoop drives the plan from len(conns) connections, each sending
// its next request as soon as the previous answer is read, for count
// requests when count > 0 and otherwise until dur has passed. Position
// numbering starts at from, so that consecutive windows continue one
// sequence. It returns the position after the last one sent.
func closedLoop(ctx context.Context, url string, conns []*conn, p *loadPlan, from, count int, dur time.Duration, traced bool, k *keeper) (window, int) {
	var (
		wg    sync.WaitGroup
		parts = make([]window, len(conns))
		next  atomic.Int64
	)
	next.Store(int64(from))
	start := time.Now()
	deadline := start.Add(dur)
	for w, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := make(map[int]bool)
			for n := 0; ctx.Err() == nil; n++ {
				if count <= 0 && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1)) - 1
				if count > 0 && i >= from+count {
					return
				}
				r := p.order(i)
				lat, payload, ok := p.send(ctx, c, url, r, traced)
				parts[w].samples = append(parts[w].samples, sample{lat: lat, bytes: len(payload), ok: ok})
				if ok && k != nil && k.keep(seen, r, n, len(payload), traced) {
					parts[w].kept = append(parts[w].kept, kept{r, lat, bytes.Clone(payload)})
				}
			}
		}()
	}
	wg.Wait()
	out := window{elapsed: time.Since(start)}
	for _, part := range parts {
		out.merge(part)
	}
	return out, int(next.Load())
}

func (k *keeper) keep(seen map[int]bool, r, n, size int, traced bool) bool {
	if traced {
		return k.traceBudget.Add(-int64(size)) >= 0
	}
	if !seen[r] {
		seen[r] = true
		return true
	}
	return n%16 == 0
}

// openLoop calls do(i) for i < n on a fixed schedule, one call every
// period from start, whether or not earlier calls were slow: a call
// that finds itself late goes out at once. Each call is timed from the
// instant it was due, so a stall charges every request queued behind
// it on the connection. lag is the generator's own lateness: how long
// after the call was both due and free to go (the previous answer
// read) it actually went.
// spinBefore is how long before a due time the generator stops
// sleeping and polls the clock instead: a sleeping goroutine wakes up
// to a millisecond late when the daemon has both CPUs busy, and the
// open loop promises punctuality below that. It costs the generator
// about 2% of one CPU at 48 requests a second.
const spinBefore = 500 * time.Microsecond

func openLoop(ctx context.Context, start time.Time, period time.Duration, n int, do func(i int) (size int, ok bool)) []sample {
	samples := make([]sample, 0, n)
	free := start
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due) - spinBefore; wait > 0 {
			time.Sleep(wait)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		sent := time.Now()
		size, ok := do(i)
		done := time.Now()
		lag := sent.Sub(due)
		if free.After(due) {
			lag = sent.Sub(free)
		}
		samples = append(samples, sample{lat: done.Sub(due), lag: lag, bytes: size, ok: ok})
		free = done
	}
	return samples
}
