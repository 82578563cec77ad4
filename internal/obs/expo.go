package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// WriteTo renders the registry in Prometheus text exposition format
// (version 0.0.4): one # HELP and # TYPE line per family, then its
// samples, families sorted by name and children by label value so the
// output is deterministic and golden-testable.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	for _, f := range r.families() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, lv := range f.labelValues() {
			f.writeChild(bw, lv)
		}
	}
	err := bw.Flush()
	return cw.n, err
}

// Handler serves the registries' expositions one after another, in the
// order given — oniond's GET /metrics writes Default, then its
// Service's registry. No family name may appear in two of them.
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, r := range regs {
			if _, err := r.WriteTo(w); err != nil {
				return // the client is gone; nothing more can reach it
			}
		}
	})
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// writeChild renders the samples of one child (label value lv; "" for
// unlabeled families).
func (f *family) writeChild(w *bufio.Writer, lv string) {
	switch f.typ {
	case "counter":
		f.mu.RLock()
		c := f.counters[lv]
		f.mu.RUnlock()
		if c == nil {
			return
		}
		fmt.Fprintf(w, "%s%s %s\n", f.name, f.labelPairs(lv, "", 0), formatUint(c.Value()))
	case "gauge":
		f.mu.RLock()
		g := f.gauges[lv]
		f.mu.RUnlock()
		if g == nil {
			return
		}
		fmt.Fprintf(w, "%s%s %s\n", f.name, f.labelPairs(lv, "", 0), strconv.FormatInt(g.Value(), 10))
	case "histogram":
		f.mu.RLock()
		h := f.hists[lv]
		f.mu.RUnlock()
		if h == nil {
			return
		}
		cum, count, sum := h.snapshot()
		for i, b := range h.bounds {
			fmt.Fprintf(w, "%s_bucket%s %s\n", f.name, f.labelPairs(lv, "le", b), formatUint(cum[i]))
		}
		fmt.Fprintf(w, "%s_bucket%s %s\n", f.name, f.labelPairsInf(lv), formatUint(cum[len(h.bounds)]))
		fmt.Fprintf(w, "%s_sum%s %s\n", f.name, f.labelPairs(lv, "", 0), formatFloat(sum))
		fmt.Fprintf(w, "%s_count%s %s\n", f.name, f.labelPairs(lv, "", 0), formatUint(count))
	}
}

// labelPairs renders the {k="v",...} block for a sample: the family's
// own label (if any) plus an optional le bound for histogram buckets.
func (f *family) labelPairs(lv, le string, bound float64) string {
	var parts []string
	if f.label != "" {
		parts = append(parts, f.label+`="`+escapeLabel(lv)+`"`)
	}
	if le != "" {
		parts = append(parts, le+`="`+formatFloat(bound)+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func (f *family) labelPairsInf(lv string) string {
	if f.label != "" {
		return "{" + f.label + `="` + escapeLabel(lv) + `",le="+Inf"}`
	}
	return `{le="+Inf"}`
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

func validMetricName(s string) bool { return metricNameRe.MatchString(s) }
func validLabelName(s string) bool  { return labelNameRe.MatchString(s) }

// ValidateExposition checks text against the Prometheus text exposition
// format, promtool-style: well-formed HELP/TYPE comments, parseable
// samples, TYPE before the samples it covers, no duplicate series, and
// for histogram families a +Inf bucket with non-decreasing cumulative
// counts that agree with _count. It returns the first violation, nil
// when the input is clean. This is the in-tree gate used by the
// exposition golden test and oniond's -check-metrics mode.
func ValidateExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	typed := make(map[string]string) // family -> type
	sampled := make(map[string]bool) // family -> samples seen
	series := make(map[string]bool)  // name + sorted labelset
	hists := make(map[string]*histCheck)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if err := validateComment(text, typed, sampled); err != nil {
				return fmt.Errorf("line %d: %w", line, err)
			}
			continue
		}
		s, err := parseSample(text)
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		fam := s.name
		if typ, base := histBase(s.name, typed); typ {
			fam = base
		}
		if t, ok := typed[fam]; ok {
			sampled[fam] = true
			if t == "histogram" {
				hc := hists[fam]
				if hc == nil {
					hc = &histCheck{buckets: make(map[string][]bucketSample),
						counts: make(map[string]float64), haveCount: make(map[string]bool)}
					hists[fam] = hc
				}
				if err := hc.add(fam, s); err != nil {
					return fmt.Errorf("line %d: %w", line, err)
				}
			}
		} else {
			sampled[s.name] = true // untyped family; still deduped below
		}
		key := s.name + "|" + s.labelKey()
		if series[key] {
			return fmt.Errorf("line %d: duplicate series %s", line, text)
		}
		series[key] = true
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("obs: reading exposition: %w", err)
	}
	for fam, hc := range hists {
		if err := hc.finish(fam); err != nil {
			return err
		}
	}
	return nil
}

func validateComment(text string, typed map[string]string, sampled map[string]bool) error {
	fields := strings.SplitN(text, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment, allowed
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed HELP comment %q", text)
		}
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE comment %q", text)
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !validMetricName(name) {
			return fmt.Errorf("invalid metric name in TYPE comment %q", text)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", typ)
		}
		if _, dup := typed[name]; dup {
			return fmt.Errorf("duplicate TYPE for %s", name)
		}
		if sampled[name] {
			return fmt.Errorf("TYPE for %s after its samples", name)
		}
		typed[name] = typ
	}
	return nil
}

type sample struct {
	name   string
	labels [][2]string
	value  float64
}

func (s *sample) label(k string) (string, bool) {
	for _, p := range s.labels {
		if p[0] == k {
			return p[1], true
		}
	}
	return "", false
}

// labelKey renders the sorted labelset for series dedup.
func (s *sample) labelKey() string {
	pairs := make([]string, len(s.labels))
	for i, p := range s.labels {
		pairs[i] = p[0] + "=" + p[1]
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

// parseSample parses `name{k="v",...} value [timestamp]`.
func parseSample(text string) (*sample, error) {
	s := &sample{}
	i := strings.IndexAny(text, "{ ")
	if i < 0 {
		return nil, fmt.Errorf("malformed sample %q", text)
	}
	s.name = text[:i]
	if !validMetricName(s.name) {
		return nil, fmt.Errorf("invalid metric name %q", s.name)
	}
	rest := text[i:]
	if rest[0] == '{' {
		body, tail, err := parseLabels(rest[1:])
		if err != nil {
			return nil, fmt.Errorf("sample %q: %w", text, err)
		}
		s.labels = body
		rest = tail
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return nil, fmt.Errorf("malformed sample value in %q", text)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return nil, fmt.Errorf("sample %q: bad value: %w", text, err)
	}
	s.value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return nil, fmt.Errorf("sample %q: bad timestamp: %w", text, err)
		}
	}
	return s, nil
}

// parseLabels consumes `k="v",...}` and returns the pairs plus the
// remaining text after the closing brace.
func parseLabels(text string) ([][2]string, string, error) {
	var out [][2]string
	for {
		text = strings.TrimLeft(text, " ,")
		if text == "" {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		if text[0] == '}' {
			return out, text[1:], nil
		}
		eq := strings.IndexByte(text, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '='")
		}
		name := strings.TrimSpace(text[:eq])
		if !validLabelName(name) {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		text = text[eq+1:]
		if len(text) == 0 || text[0] != '"' {
			return nil, "", fmt.Errorf("label %s: unquoted value", name)
		}
		var b strings.Builder
		i := 1
		for {
			if i >= len(text) {
				return nil, "", fmt.Errorf("label %s: unterminated value", name)
			}
			c := text[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(text) {
					return nil, "", fmt.Errorf("label %s: dangling escape", name)
				}
				switch text[i+1] {
				case '\\', '"':
					b.WriteByte(text[i+1])
				case 'n':
					b.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: bad escape \\%c", name, text[i+1])
				}
				i += 2
				continue
			}
			b.WriteByte(c)
			i++
		}
		out = append(out, [2]string{name, b.String()})
		text = text[i:]
	}
}

// histBase reports whether name is a histogram-suffixed sample of a
// family declared with TYPE histogram, returning the base family name.
func histBase(name string, typed map[string]string) (bool, string) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && typed[base] == "histogram" {
			return true, base
		}
	}
	// A bare histogram family name as a sample is malformed, but the
	// generic sample checks already accept it as an untyped series.
	return false, name
}

type bucketSample struct {
	le    float64
	count float64
}

// histCheck accumulates one histogram family's samples per labelset
// (excluding le) for the structural checks.
type histCheck struct {
	buckets   map[string][]bucketSample
	counts    map[string]float64
	haveCount map[string]bool
}

func (hc *histCheck) add(fam string, s *sample) error {
	// Key the child by its labels minus le.
	var rest []string
	var le string
	for _, p := range s.labels {
		if p[0] == "le" {
			le = p[1]
			continue
		}
		rest = append(rest, p[0]+"="+p[1])
	}
	sort.Strings(rest)
	key := strings.Join(rest, ",")
	switch {
	case strings.HasSuffix(s.name, "_bucket"):
		if le == "" {
			return fmt.Errorf("%s_bucket sample without le label", fam)
		}
		var bound float64
		if le == "+Inf" {
			bound = math.Inf(1)
		} else {
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("%s_bucket: bad le %q: %w", fam, le, err)
			}
			bound = v
		}
		hc.buckets[key] = append(hc.buckets[key], bucketSample{le: bound, count: s.value})
	case strings.HasSuffix(s.name, "_count"):
		hc.counts[key] = s.value
		hc.haveCount[key] = true
	}
	return nil
}

func (hc *histCheck) finish(fam string) error {
	for key, bs := range hc.buckets {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		last := bs[len(bs)-1]
		if !math.IsInf(last.le, 1) {
			return fmt.Errorf("histogram %s{%s}: missing +Inf bucket", fam, key)
		}
		for i := 1; i < len(bs); i++ {
			if bs[i].count < bs[i-1].count {
				return fmt.Errorf("histogram %s{%s}: bucket counts decrease at le=%g", fam, key, bs[i].le)
			}
		}
		if hc.haveCount[key] && hc.counts[key] != last.count {
			return fmt.Errorf("histogram %s{%s}: _count %g != +Inf bucket %g",
				fam, key, hc.counts[key], last.count)
		}
	}
	for key := range hc.haveCount {
		if len(hc.buckets[key]) == 0 {
			return fmt.Errorf("histogram %s{%s}: _count without buckets", fam, key)
		}
	}
	return nil
}
