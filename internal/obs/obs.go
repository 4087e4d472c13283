// Package obs is the observability plane: a deterministic metrics
// registry, a structured round-event tracer, and the HTTP endpoint that
// serves both live (ROADMAP "always-on service" item; the §VII evaluation
// substrate every figure-level measurement reports through).
//
// # Determinism contract
//
// The simulation's headline invariant — byte-identical ScenarioReports at
// any worker count — extends to the registry: DeterministicSnapshot() and
// its text rendering are byte-identical across worker counts for the same
// seeded run. The contract rests on metric classes:
//
//   - ClassDet metrics (counters, gauges, value histograms) carry fully
//     deterministic values. Counters are commutative atomic adds — the
//     sum is independent of worker interleaving, which is why no
//     per-worker shard-and-fold step is needed; gauges must only be Set
//     from single-threaded round-top contexts (round hooks, BeginRound).
//   - ClassTimed histograms time real work (the internal/hhash hot path —
//     the Fig 9 profiling hook). Their observation *count* is
//     deterministic and included; their bucket counts and sums are
//     wall-clock and excluded.
//   - ClassSched metrics depend on goroutine scheduling (engine shard
//     timings, merge-barrier stalls) and are excluded entirely.
//
// Nothing in this package reads any simulation PRNG, and nothing here is
// reachable from ScenarioReport.Digest(): enabling observability cannot
// perturb a run.
//
// Every accessor is nil-safe: methods on a nil *Registry, *Counter,
// *Gauge, *Histogram or *Tracer are one-branch no-ops, so instrumented
// code pays a single predictable branch when observability is disabled.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Class tags how a metric relates to the determinism boundary.
type Class int

// The three metric classes (see the package comment).
const (
	// ClassDet values are byte-identical across worker counts.
	ClassDet Class = iota
	// ClassTimed values are wall-clock; only the observation count is
	// deterministic.
	ClassTimed
	// ClassSched values are scheduling artifacts; excluded from the
	// deterministic snapshot entirely.
	ClassSched
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassDet:
		return "det"
	case ClassTimed:
		return "timed"
	case ClassSched:
		return "sched"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Label is one name=value metric dimension.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// kind discriminates the metric types inside the registry.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered instrument with its identity.
type metric struct {
	name   string
	labels []Label // sorted by key
	kind   kind
	class  Class

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry keys instruments by name + labels and serves stable-ordered
// snapshots. Registration (the Counter/Gauge/Histogram getters) takes a
// lock; the returned instruments are lock-free atomics, so hot paths
// register once and operate often.
//
// A nil *Registry is valid: every getter returns nil, and the nil
// instruments no-op — the disabled-observability configuration.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// metricKey renders the canonical identity of name + sorted labels.
func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0xff)
		b.WriteString(l.Key)
		b.WriteByte(0xfe)
		b.WriteString(l.Value)
	}
	return b.String()
}

// sortLabels returns a copy of labels in canonical (key-sorted) order.
func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// lookup gets-or-creates the metric for (name, labels), enforcing that a
// name is never re-registered as a different kind or class — that would
// make snapshots ambiguous, so it is a programming error.
func (r *Registry) lookup(name string, labels []Label, k kind, c Class) *metric {
	ls := sortLabels(labels)
	key := metricKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.kind != k || m.class != c {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v/%v (was %v/%v)",
				name, k, c, m.kind, m.class))
		}
		return m
	}
	m := &metric{name: name, labels: ls, kind: k, class: c}
	switch k {
	case kindCounter:
		m.counter = &Counter{}
	case kindGauge:
		m.gauge = &Gauge{}
	case kindHistogram:
		m.hist = &Histogram{class: c}
	}
	r.metrics[key] = m
	return m
}

// Counter returns the deterministic counter for (name, labels), creating
// it on first use. Counters are monotonic commutative sums — always
// ClassDet. Nil receiver returns nil (a no-op counter).
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindCounter, ClassDet).counter
}

// Gauge returns the deterministic gauge for (name, labels). Determinism
// contract: Set only from single-threaded round-top contexts (round
// hooks, BeginRound), never from concurrent node steps. Nil receiver
// returns nil.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindGauge, ClassDet).gauge
}

// GaugeClass returns the gauge for (name, labels) with an explicit class.
// Use ClassSched for host-dependent values (memory footprints, sampled
// queue depths) that must stay outside the determinism boundary. Nil
// receiver returns nil.
func (r *Registry) GaugeClass(name string, class Class, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindGauge, class).gauge
}

// Histogram returns the timing histogram for (name, labels) with the
// given class. Nil receiver returns nil.
func (r *Registry) Histogram(name string, class Class, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindHistogram, class).hist
}

// sortedMetrics returns the registered metrics in canonical order: by
// name, then by rendered labels — the stable order every snapshot and
// exposition uses.
func (r *Registry) sortedMetrics() []*metric {
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return metricKey("", out[i].labels) < metricKey("", out[j].labels)
	})
	return out
}
