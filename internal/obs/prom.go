package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// OpenMetrics 1.0 exposition for a registry snapshot, so the debug
// endpoints can be scraped with standard tooling. Metric names are
// sanitised to the Prometheus grammar ("serve/e2e_ns" ->
// "serve_e2e_ns"); histogram buckets keep their power-of-two nanosecond
// boundaries as cumulative le labels. Registry names may carry a label
// set built with LabeledName ("router/shard_requests{shard=\"http://h:1\"}");
// label values are escaped per the exposition format spec (backslash,
// quote, newline) at exposition time.

// OpenMetricsContentType is the Content-Type of the OpenMetrics 1.0
// text format (exemplar-capable).
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// LabeledName builds a registry metric name carrying a label set:
// LabeledName("router/shard_requests", "shard", url) ->
// `router/shard_requests{shard="<url>"}`. Pairs are key, value, key,
// value, ... Values are escaped at build time (backslash, quote,
// newline — the exposition spec's escape set), so the stored name is
// unambiguous, JSON snapshots show the escaped form verbatim, and the
// OpenMetrics writer can emit the label clause as-is.
func LabeledName(base string, pairs ...string) string {
	if len(pairs) == 0 || len(pairs)%2 != 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(pairs[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// splitLabeled splits a registry name into its base and label pairs
// (nil when the name carries no labels). Values stay in their escaped
// form; the closing-quote scan honours backslash escapes.
func splitLabeled(name string) (base string, pairs [][2]string) {
	open := strings.IndexByte(name, '{')
	if open < 0 || !strings.HasSuffix(name, `"}`) {
		return name, nil
	}
	base = name[:open]
	body := name[open+1 : len(name)-1]
	for len(body) > 0 {
		eq := strings.Index(body, `="`)
		if eq < 0 {
			return name, nil // malformed; treat as unlabeled
		}
		key := body[:eq]
		rest := body[eq+2:]
		end := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++ // skip the escaped byte
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return name, nil
		}
		pairs = append(pairs, [2]string{key, rest[:end]})
		body = strings.TrimPrefix(rest[end+1:], ",")
	}
	return base, pairs
}

// escapeLabelValue escapes a label value per the exposition format
// spec: backslash, double-quote, and line feed.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// renderLabels renders a label set (plus an optional extra pair, for
// histogram le) as the {...} clause. Pair values arrive pre-escaped
// from LabeledName via splitLabeled. Empty sets render as "".
func renderLabels(pairs [][2]string, extraKey, extraVal string) string {
	if len(pairs) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(promName(p[0]))
		b.WriteString(`="`)
		b.WriteString(p[1])
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(pairs) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// promName sanitises a registry name to the Prometheus metric grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// typeTracker emits each metric family's # TYPE line once: labeled
// variants of the same base name share a family, and sorted key order
// keeps them adjacent.
type typeTracker struct {
	w    io.Writer
	last string
	err  error
}

func (t *typeTracker) family(pn, kind string) {
	if t.err != nil || pn == t.last {
		return
	}
	t.last = pn
	_, t.err = fmt.Fprintf(t.w, "# TYPE %s %s\n", pn, kind)
}

// WriteOpenMetrics renders the snapshot in the OpenMetrics 1.0 text
// format: counters gain the _total suffix, histogram le values are
// canonical floats, buckets carry exemplars when their histogram has
// them, and the document ends with # EOF. Names are emitted in lexical
// order, so the output is stable for a given snapshot.
func WriteOpenMetrics(w io.Writer, s Snapshot) error {
	t := &typeTracker{w: w}
	for _, name := range sortedKeys(s.Counters) {
		base, pairs := splitLabeled(name)
		pn := promName(base)
		t.family(pn, "counter")
		if t.err == nil {
			_, t.err = fmt.Fprintf(w, "%s_total%s %d\n", pn, renderLabels(pairs, "", ""), s.Counters[name])
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		base, pairs := splitLabeled(name)
		pn := promName(base)
		t.family(pn, "gauge")
		if t.err == nil {
			_, t.err = fmt.Fprintf(w, "%s%s %d\n", pn, renderLabels(pairs, "", ""), s.Gauges[name])
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		base, pairs := splitLabeled(name)
		pn := promName(base)
		h := s.Histograms[name]
		t.family(pn, "histogram")
		if t.err != nil {
			break
		}
		exemplars := map[int]Exemplar{}
		for _, e := range h.Exemplars {
			exemplars[e.Bucket] = e.Exemplar
		}
		// Bucket i counts observations in [2^i, 2^(i+1)) ns: cumulative
		// counts against upper bounds 2^(i+1), with the last bucket as
		// +Inf (it absorbs the tail).
		cum := int64(0)
		for i := 0; i < HistogramBuckets-1 && t.err == nil; i++ {
			cum += h.Buckets[i]
			_, t.err = fmt.Fprintf(w, "%s_bucket%s %d%s\n",
				pn, renderLabels(pairs, "le", strconv.FormatInt(int64(1)<<(i+1), 10)+".0"),
				cum, exemplarSuffix(exemplars, i))
		}
		if t.err != nil {
			break
		}
		cum += h.Buckets[HistogramBuckets-1]
		_, t.err = fmt.Fprintf(w, "%s_bucket%s %d%s\n%s_sum%s %d\n%s_count%s %d\n",
			pn, renderLabels(pairs, "le", "+Inf"), cum,
			exemplarSuffix(exemplars, HistogramBuckets-1),
			pn, renderLabels(pairs, "", ""), h.Sum,
			pn, renderLabels(pairs, "", ""), h.Count)
	}
	if t.err == nil {
		_, t.err = io.WriteString(w, "# EOF\n")
	}
	return t.err
}

// exemplarSuffix renders a bucket's OpenMetrics exemplar clause
// (" # {trace_id=\"...\"} <value> <ts>"), or "" when the bucket has
// none. The exemplar value stays in nanoseconds — the same unit as the
// le bounds, as the spec requires an exemplar to fall inside its
// bucket's range — and the timestamp is seconds.
func exemplarSuffix(exemplars map[int]Exemplar, bucket int) string {
	e, ok := exemplars[bucket]
	if !ok {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=\"%s\"} %d %d.%03d",
		escapeLabelValue(e.TraceID), e.ValueNS, e.UnixMS/1000, e.UnixMS%1000)
}
