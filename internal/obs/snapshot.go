package obs

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// Point is one metric in a snapshot. Counter and gauge points use Value;
// histogram points use Sum, Count, Bounds and Buckets (the last bucket is
// the implicit +Inf one).
type Point struct {
	Name    string    `json:"name"`
	Labels  []Label   `json:"labels,omitempty"`
	Kind    string    `json:"kind"`
	Class   string    `json:"class"`
	Value   float64   `json:"value,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Count   uint64    `json:"count,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []uint64  `json:"buckets,omitempty"`
}

// Snapshot is a stable-ordered point-in-time view of a registry: points
// sorted by name then canonical labels, so two snapshots of equal state
// render byte-identically.
type Snapshot struct {
	Points []Point `json:"points"`
}

// Snapshot captures every registered metric. Nil-safe: a nil registry
// yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	ms := r.sortedMetrics()
	out := Snapshot{Points: make([]Point, 0, len(ms))}
	for _, m := range ms {
		p := Point{
			Name:   m.name,
			Labels: m.labels,
			Kind:   m.kind.String(),
			Class:  m.class.String(),
		}
		switch m.kind {
		case kindCounter:
			p.Value = float64(m.counter.Value())
		case kindGauge:
			p.Value = float64(m.gauge.Value())
		case kindHistogram:
			p.Sum = m.hist.Sum()
			p.Count = m.hist.Count()
			p.Bounds = timeBuckets[:]
			p.Buckets = m.hist.snapshotBuckets()
		}
		out.Points = append(out.Points, p)
	}
	return out
}

// ByLabel returns the counter or gauge values of one metric family keyed by
// the value of the given label — pag_core_bytes_total by "kind", say.
func (s Snapshot) ByLabel(name, key string) map[string]float64 {
	out := map[string]float64{}
	for _, p := range s.Points {
		if p.Name != name {
			continue
		}
		for _, l := range p.Labels {
			if l.Key == key {
				out[l.Value] += p.Value
			}
		}
	}
	return out
}

// Total returns the sum of the counter or gauge values of one metric
// family over all its label sets — the value itself for an unlabelled one.
func (s Snapshot) Total(name string) float64 {
	total := 0.0
	for _, p := range s.Points {
		if p.Name == name {
			total += p.Value
		}
	}
	return total
}

// labelRender renders {k="v",...} for a sample line, with an optional
// extra label appended (Prometheus histogram "le"). Empty labels render
// as the empty string.
func labelRender(labels []Label, extra ...Label) string {
	all := append(append([]Label{}, labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = l.Key + `="` + escapeLabel(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// escapeLabel escapes a label value per the Prometheus exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a float deterministically (shortest round-trip).
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// DeterministicText renders the determinism-checked view of a snapshot:
// ClassDet counters and gauges with their values, ClassDet histograms
// with bucket and total counts (sums are float additions whose order is
// schedule-dependent, so they stay out), ClassTimed histograms as a bare
// observation count, ClassSched metrics omitted. Two byte-identical runs
// produce byte-identical renderings at any worker count — the property
// the determinism tests assert.
func (s Snapshot) DeterministicText() string {
	var b strings.Builder
	b.WriteString("# obs deterministic snapshot\n")
	for _, p := range s.Points {
		ls := labelRender(p.Labels)
		switch {
		case p.Class == ClassSched.String():
			continue
		case p.Kind == "histogram" && p.Class == ClassTimed.String():
			fmt.Fprintf(&b, "%s_count%s %d\n", p.Name, ls, p.Count)
		case p.Kind == "histogram":
			for i, n := range p.Buckets {
				le := "+Inf"
				if i < len(p.Bounds) {
					le = formatFloat(p.Bounds[i])
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n",
					p.Name, labelRender(p.Labels, L("le", le)), n)
			}
			fmt.Fprintf(&b, "%s_count%s %d\n", p.Name, ls, p.Count)
		default:
			fmt.Fprintf(&b, "%s%s %s\n", p.Name, ls, formatFloat(p.Value))
		}
	}
	return b.String()
}

// PrometheusText renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): every metric, including wall-clock sums and
// scheduling-class timings — the live endpoint serves everything; the
// determinism boundary only constrains DeterministicText.
func (s Snapshot) PrometheusText() string {
	var b strings.Builder
	lastName := ""
	for _, p := range s.Points {
		promKind := p.Kind
		if promKind == "counter" && !strings.HasSuffix(p.Name, "_total") {
			promKind = "untyped"
		}
		if p.Name != lastName {
			fmt.Fprintf(&b, "# TYPE %s %s\n", p.Name, promKind)
			lastName = p.Name
		}
		ls := labelRender(p.Labels)
		if p.Kind != "histogram" {
			fmt.Fprintf(&b, "%s%s %s\n", p.Name, ls, formatFloat(p.Value))
			continue
		}
		cum := uint64(0)
		for i, n := range p.Buckets {
			cum += n
			le := "+Inf"
			if i < len(p.Bounds) {
				le = formatFloat(p.Bounds[i])
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n",
				p.Name, labelRender(p.Labels, L("le", le)), cum)
		}
		fmt.Fprintf(&b, "%s_sum%s %s\n", p.Name, ls, formatFloat(p.Sum))
		fmt.Fprintf(&b, "%s_count%s %d\n", p.Name, ls, p.Count)
	}
	return b.String()
}

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	typeLineRE   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	sampleRE     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[-+]?(Inf|[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?))( [0-9]+)?$`)
	labelPairRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)
)

// ValidateExposition checks that data is well-formed Prometheus text
// exposition: every sample line parses, metric and label names are legal,
// and every sample's base name was announced by a preceding # TYPE line.
// It is the CI metrics-smoke check, shared with the package tests so the
// two cannot drift.
func ValidateExposition(data []byte) error {
	announced := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			m := typeLineRE.FindStringSubmatch(line)
			if m == nil {
				return fmt.Errorf("line %d: malformed TYPE line %q", i+1, line)
			}
			announced[m[1]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP and free comments
		}
		m := sampleRE.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: malformed sample %q", i+1, line)
		}
		name := m[1]
		if !metricNameRE.MatchString(name) {
			return fmt.Errorf("line %d: bad metric name %q", i+1, name)
		}
		if labels := m[2]; labels != "" {
			for _, pair := range splitLabelPairs(labels[1 : len(labels)-1]) {
				if !labelPairRE.MatchString(pair) {
					return fmt.Errorf("line %d: bad label pair %q", i+1, pair)
				}
			}
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if trimmed := strings.TrimSuffix(name, suffix); trimmed != name && announced[trimmed] {
				base = trimmed
				break
			}
		}
		if !announced[base] {
			return fmt.Errorf("line %d: sample %q precedes its TYPE line", i+1, name)
		}
	}
	return nil
}

// splitLabelPairs splits `k="v",k2="v2"` on commas outside quotes.
func splitLabelPairs(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if depth {
				i++ // skip escaped char
			}
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
