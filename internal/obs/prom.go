package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// ExpositionContentType is the Content-Type of the Prometheus text
// exposition format, version 0.0.4.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format: a # HELP and # TYPE line per family, then the
// samples, with the registry's const labels on every series. Histograms
// emit cumulative le-bucketed _bucket series ending in le="+Inf", plus
// _sum and _count. Families are sorted by name so consecutive scrapes
// diff cleanly.
func WritePrometheus(w io.Writer, r *Registry) error {
	bw := bufio.NewWriter(w)
	metrics, labels := r.snapshot()
	for _, m := range metrics {
		if m.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", m.name, escapeHelp(m.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.kind)
		switch m.kind {
		case KindHistogram:
			writeHistogram(bw, m, labels)
		default:
			fmt.Fprintf(bw, "%s%s %s\n", m.name, renderLabels(labels), formatValue(m.value()))
		}
	}
	return bw.Flush()
}

func writeHistogram(w io.Writer, m *metric, labels []Attr) {
	cum := m.hist.Cumulative()
	bounds := m.hist.bounds
	for i, b := range bounds {
		fmt.Fprintf(w, "%s_bucket%s %d\n",
			m.name, renderLabels(labels, String("le", formatValue(b))), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n",
		m.name, renderLabels(labels, String("le", "+Inf")), cum[len(cum)-1])
	fmt.Fprintf(w, "%s_sum%s %s\n", m.name, renderLabels(labels), formatValue(m.hist.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", m.name, renderLabels(labels), cum[len(cum)-1])
}

// WriteJSON renders the same registry as WritePrometheus as one flat
// JSON object: each const label is a string field, each counter or gauge
// a number keyed by its name without the "genasm_" prefix, and each
// histogram an object {count, sum, p50, p90, p99, buckets} whose
// quantiles are in the metric's own unit and whose buckets are
// cumulative, keyed by upper bound and ending in "+Inf". Like
// json.Marshal, it fails on a NaN or infinite value.
func WriteJSON(w io.Writer, r *Registry) error {
	metrics, labels := r.snapshot()
	obj := make(map[string]any, len(labels)+len(metrics))
	for _, a := range labels {
		obj[a.Key] = a.Value
	}
	for _, m := range metrics {
		key := strings.TrimPrefix(m.name, "genasm_")
		if m.kind != KindHistogram {
			obj[key] = m.value()
			continue
		}
		h, cum := m.hist, m.hist.Cumulative()
		obj[key] = jsonHistogram{
			Count: cum[len(cum)-1], Sum: h.Sum(),
			P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
			Buckets: jsonBuckets{bounds: h.bounds, cum: cum},
		}
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(obj)
}

type jsonHistogram struct {
	Count   uint64      `json:"count"`
	Sum     float64     `json:"sum"`
	P50     float64     `json:"p50"`
	P90     float64     `json:"p90"`
	P99     float64     `json:"p99"`
	Buckets jsonBuckets `json:"buckets"`
}

// jsonBuckets marshals cumulative bucket counts as an object keyed by
// upper bound in bound order (a Go map would sort "+Inf" first).
type jsonBuckets struct {
	bounds []float64
	cum    []uint64 // len(bounds)+1; last is the +Inf bucket
}

func (b jsonBuckets) MarshalJSON() ([]byte, error) {
	out := []byte{'{'}
	for i, c := range b.cum {
		le := "+Inf"
		if i < len(b.bounds) {
			le = formatValue(b.bounds[i])
		}
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendQuote(out, le)
		out = append(out, ':')
		out = strconv.AppendUint(out, c, 10)
	}
	return append(out, '}'), nil
}

// renderLabels renders {k="v",...} (empty string for no labels).
func renderLabels(constLabels []Attr, extra ...Attr) string {
	all := make([]Attr, 0, len(constLabels)+len(extra))
	all = append(all, constLabels...)
	all = append(all, extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(a.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---- strict exposition-format checker ----

// sampleRe matches one sample line: name, optional {labels}, value.
// Label values are double-quoted with \\, \" and \n escapes.
var (
	sampleNameRe = `[a-zA-Z_:][a-zA-Z0-9_:]*`
	labelRe      = `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"`
	sampleRe     = regexp.MustCompile(`^(` + sampleNameRe + `)(\{` + labelRe + `(?:,` + labelRe + `)*\})? (\S+)( [0-9]+)?$`)
	helpRe       = regexp.MustCompile(`^# HELP (` + sampleNameRe + `) (.*)$`)
	typeRe       = regexp.MustCompile(`^# TYPE (` + sampleNameRe + `) (counter|gauge|histogram|summary|untyped)$`)
	leRe         = regexp.MustCompile(`le="((?:[^"\\]|\\.)*)"`)
)

// CheckExposition strictly validates a Prometheus text-exposition
// payload against both the format and the genasm metric conventions:
//
//   - every line is a well-formed comment, sample, or blank;
//   - every sample belongs to a family declared by a preceding # TYPE
//     (histogram samples only as _bucket/_sum/_count);
//   - every family has exactly one # TYPE and at most one # HELP, the
//     HELP preceding the TYPE;
//   - counter family names end in _total, gauge/histogram names do not;
//   - histogram buckets are le-labeled, non-decreasing in both bound
//     and count (cumulative), end in an le="+Inf" bucket whose count
//     equals _count, and appear before their _sum/_count;
//   - sample values parse as floats (or +Inf/-Inf/NaN).
//
// It returns every violation found, or nil for a clean payload. Tests
// and the CI smoke step fail on any returned error.
func CheckExposition(data []byte) []error {
	var errs []error
	report := func(line int, format string, args ...any) {
		errs = append(errs, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}

	type family struct {
		kind     string
		helpSeen bool
		samples  int
		// histogram bookkeeping
		buckets  []float64
		counts   []uint64
		infCount uint64
		sawInf   bool
		sawSum   bool
		countVal uint64
		sawCount bool
	}
	families := make(map[string]*family)
	var declared []string // TYPE declaration order

	// familyOf strips a histogram series suffix to its family name, if
	// that family is a declared histogram.
	familyOf := func(name string) (string, string) {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name {
				if f, ok := families[base]; ok && f.kind == "histogram" {
					return base, suffix
				}
			}
		}
		return name, ""
	}

	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		ln := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if m := helpRe.FindStringSubmatch(line); m != nil {
				name := m[1]
				if f, ok := families[name]; ok {
					if f.helpSeen {
						report(ln, "duplicate # HELP for %s", name)
					}
					report(ln, "# HELP %s after its # TYPE (HELP must precede TYPE)", name)
					f.helpSeen = true
					continue
				}
				f := &family{helpSeen: true}
				families[name] = f
				continue
			}
			if m := typeRe.FindStringSubmatch(line); m != nil {
				name, kind := m[1], m[2]
				f, ok := families[name]
				if !ok {
					f = &family{}
					families[name] = f
				}
				if f.kind != "" {
					report(ln, "duplicate # TYPE for %s", name)
					continue
				}
				f.kind = kind
				declared = append(declared, name)
				if kind == "counter" && !strings.HasSuffix(name, "_total") {
					report(ln, "counter %s does not end in _total", name)
				}
				if kind != "counter" && strings.HasSuffix(name, "_total") {
					report(ln, "%s %s must not end in _total", kind, name)
				}
				continue
			}
			report(ln, "malformed comment line %q (want # HELP or # TYPE)", line)
			continue
		}

		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			report(ln, "malformed sample line %q", line)
			continue
		}
		name, labels, valStr := m[1], m[2], m[3]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" && valStr != "-Inf" && valStr != "NaN" {
			report(ln, "sample %s has unparseable value %q", name, valStr)
			continue
		}
		base, suffix := familyOf(name)
		f, ok := families[base]
		if !ok || f.kind == "" {
			report(ln, "sample %s has no preceding # TYPE", name)
			continue
		}
		f.samples++
		if f.kind != "histogram" {
			continue
		}
		switch suffix {
		case "_bucket":
			lm := leRe.FindStringSubmatch(labels)
			if lm == nil {
				report(ln, "histogram bucket %s lacks an le label", name)
				continue
			}
			if f.sawSum || f.sawCount {
				report(ln, "histogram %s bucket after _sum/_count", base)
			}
			cnt := uint64(val)
			if lm[1] == "+Inf" {
				if f.sawInf {
					report(ln, "histogram %s has more than one le=\"+Inf\" bucket", base)
				}
				f.sawInf, f.infCount = true, cnt
				if n := len(f.counts); n > 0 && cnt < f.counts[n-1] {
					report(ln, "histogram %s +Inf bucket count %d below previous bucket %d (not cumulative)", base, cnt, f.counts[n-1])
				}
				continue
			}
			bound, err := strconv.ParseFloat(lm[1], 64)
			if err != nil {
				report(ln, "histogram %s bucket has unparseable le=%q", base, lm[1])
				continue
			}
			if f.sawInf {
				report(ln, "histogram %s has a finite bucket after le=\"+Inf\"", base)
			}
			if n := len(f.buckets); n > 0 {
				if bound <= f.buckets[n-1] {
					report(ln, "histogram %s bucket bounds not increasing (%g after %g)", base, bound, f.buckets[n-1])
				}
				if cnt < f.counts[n-1] {
					report(ln, "histogram %s bucket counts not cumulative (%d after %d)", base, cnt, f.counts[n-1])
				}
			}
			f.buckets = append(f.buckets, bound)
			f.counts = append(f.counts, cnt)
		case "_sum":
			f.sawSum = true
		case "_count":
			f.sawCount, f.countVal = true, uint64(val)
		default:
			report(ln, "histogram %s has a bare sample %s (want _bucket/_sum/_count)", base, name)
		}
	}

	for _, name := range declared {
		f := families[name]
		if f.samples == 0 {
			errs = append(errs, fmt.Errorf("family %s declared by # TYPE but has no samples", name))
		}
		if f.kind != "histogram" {
			continue
		}
		if !f.sawInf {
			errs = append(errs, fmt.Errorf("histogram %s has no le=\"+Inf\" bucket", name))
		}
		if !f.sawSum {
			errs = append(errs, fmt.Errorf("histogram %s has no _sum sample", name))
		}
		if !f.sawCount {
			errs = append(errs, fmt.Errorf("histogram %s has no _count sample", name))
		} else if f.sawInf && f.countVal != f.infCount {
			errs = append(errs, fmt.Errorf("histogram %s _count %d != le=\"+Inf\" bucket %d", name, f.countVal, f.infCount))
		}
	}
	for name, f := range families {
		if f.kind == "" {
			errs = append(errs, fmt.Errorf("family %s has # HELP but no # TYPE", name))
		}
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return errs
}
