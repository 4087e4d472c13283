// Package judicial is the accountability plane's verdict pipeline: every
// proof of misbehaviour a protocol raises — PAG monitor verdicts, AcTinG
// audit findings — flows through one Registry, is deduplicated into
// *facts*, counted into conviction tallies, and (when a Policy is armed)
// turned into eviction judgments the membership executes.
//
// The paper stops at the punishment hook (§II-B: "the monitors generate a
// proof of misbehaviour and the misbehaving nodes get punished") and
// leaves the punishment itself to the deployment. PeerReview-style systems
// (see PAPERS.md) close that loop by making proofs actionable; this
// package is that loop's bookkeeping half: protocol-agnostic, lock-cheap,
// and deterministic — identical verdict sets produce identical registries
// regardless of the submission order, which is what lets the parallel
// round engine keep its byte-identical guarantee with the plane active.
package judicial

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"

	"repro/internal/model"
	"repro/internal/obs"
)

// Kind names a deviation. Each protocol declares its kinds as Kind
// constants; the value is the name verdict text, dedupe keys and trace
// events carry.
type Kind string

// Verdict is one proof of misbehaviour, whichever protocol raised it.
type Verdict struct {
	Round    model.Round
	Kind     Kind
	Accused  model.NodeID
	Reporter model.NodeID
	Detail   string
	// Exchange is the model.ExchangeID of the §V-A exchange the verdict
	// judges, when one is identifiable (empty otherwise, e.g. a digest
	// mismatch spans a whole round). It is trace correlation only:
	// excluded from Key, String and Proof so the dedupe keys and proof
	// bytes are unchanged by tracing.
	Exchange string
}

// String implements fmt.Stringer.
func (v Verdict) String() string {
	return fmt.Sprintf("%v %s against %v by %v: %s",
		v.Round, v.Kind, v.Accused, v.Reporter, v.Detail)
}

// Key returns the verdict's dedupe identity.
func (v Verdict) Key() Key {
	return Key{Accused: v.Accused, Accuser: v.Reporter, Round: v.Round, Kind: v.Kind}
}

// Proof returns the canonical proof bytes the registry records the
// SHA-256 of: for the reproduction the verdict's text — a deployment
// would put the signed misbehaviour proof here.
func (v Verdict) Proof() []byte { return []byte(v.String()) }

// Key is the dedupe identity of one verdict. Repeated reports of the same
// (accused, accuser, round, kind) — monitor retries, the same finding
// re-raised on both the verify and judge passes, duplicate relays — are
// one fact about one deviation, not mounting proof of several.
type Key struct {
	Accused model.NodeID
	Accuser model.NodeID
	Round   model.Round
	Kind    Kind
}

// String implements fmt.Stringer.
func (k Key) String() string {
	return fmt.Sprintf("%v %s against %v by %v", k.Round, k.Kind, k.Accused, k.Accuser)
}

// less orders keys canonically: by round, accused, accuser, kind. Registry
// views are sorted with it, so read order never depends on submission
// order (which, on a sharded engine, is worker-schedule dependent).
func (k Key) less(o Key) bool {
	if k.Round != o.Round {
		return k.Round < o.Round
	}
	if k.Accused != o.Accused {
		return k.Accused < o.Accused
	}
	if k.Accuser != o.Accuser {
		return k.Accuser < o.Accuser
	}
	return k.Kind < o.Kind
}

// Record is one registered fact: the first-reported verdict for its key.
type Record struct {
	Key Key
	// Digest is the SHA-256 of the first report's proof bytes.
	Digest  [sha256.Size]byte
	Verdict Verdict
}

// Registry is the unified verdict sink. It is safe for concurrent use:
// under the parallel round engine nodes raise verdicts from worker
// goroutines. Reads aggregate over the deduplicated fact set in canonical
// key order, so nothing observable depends on submission interleaving.
type Registry struct {
	mu      sync.Mutex
	seen    map[Key]struct{}
	records []Record
	counts  map[model.NodeID]int

	// Observability (nil without a registry). Fact and duplicate totals
	// are deterministic — the deduplicated fact set is submission-order
	// independent, and so is the duplicate count (every submission is
	// either the first for its key or not, regardless of interleaving).
	factsC *obs.Counter
	dupesC *obs.Counter
	trace  *obs.Tracer
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		seen:   make(map[Key]struct{}),
		counts: make(map[model.NodeID]int),
	}
}

// Instrument attaches the observability registry and tracer (either may
// be nil): deduplicated fact and dropped-duplicate counters, plus one
// "verdict" trace event per new fact.
func (reg *Registry) Instrument(m *obs.Registry, tr *obs.Tracer) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.factsC = m.Counter("pag_judicial_facts_total")
	reg.dupesC = m.Counter("pag_judicial_duplicates_total")
	reg.trace = tr
}

// Submit registers one verdict, reporting whether it was a new fact
// (false: a duplicate of an already-registered key, dropped).
func (reg *Registry) Submit(v Verdict) bool {
	k := v.Key()
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, dup := reg.seen[k]; dup {
		reg.dupesC.Inc()
		return false
	}
	reg.seen[k] = struct{}{}
	reg.records = append(reg.records, Record{
		Key:     k,
		Digest:  sha256.Sum256(v.Proof()),
		Verdict: v,
	})
	reg.counts[k.Accused]++
	reg.factsC.Inc()
	if reg.trace != nil {
		fields := []obs.Field{obs.F("round", k.Round),
			obs.F("accused", k.Accused), obs.F("accuser", k.Accuser),
			obs.F("kind", k.Kind)}
		// A verdict that knows which §V-A exchange it judges carries the
		// trace correlation id, tying the fact into the exchange's span.
		if v.Exchange != "" {
			fields = append(fields, obs.XID(v.Exchange))
		}
		reg.trace.Emit("verdict", fields...)
	}
	return true
}

// Records returns the registered facts in canonical key order (a copy).
func (reg *Registry) Records() []Record {
	reg.mu.Lock()
	out := make([]Record, len(reg.records))
	copy(out, reg.records)
	reg.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key.less(out[j].Key) })
	return out
}

// Len returns the number of registered facts.
func (reg *Registry) Len() int {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return len(reg.records)
}

// Count returns the deduplicated evidence count against one node.
func (reg *Registry) Count(id model.NodeID) int {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.counts[id]
}

// Counts returns the per-accused evidence counts (a copy).
func (reg *Registry) Counts() map[model.NodeID]int {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	out := make(map[model.NodeID]int, len(reg.counts))
	for id, c := range reg.counts {
		out[id] = c
	}
	return out
}

// Convicted returns the nodes with at least threshold facts against them,
// with their counts.
func (reg *Registry) Convicted(threshold int) map[model.NodeID]int {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	out := make(map[model.NodeID]int)
	for id, c := range reg.counts {
		if c >= threshold {
			out[id] = c
		}
	}
	return out
}

// CountsInWindow returns the per-accused fact counts for rounds
// [from, to] — the windowed tally scenario phases are attributed by.
func (reg *Registry) CountsInWindow(from, to model.Round) map[model.NodeID]int {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	out := make(map[model.NodeID]int)
	for _, rec := range reg.records {
		if rec.Key.Round >= from && rec.Key.Round <= to {
			out[rec.Key.Accused]++
		}
	}
	return out
}

// Rounds returns the round of every registered fact, in canonical order.
func (reg *Registry) Rounds() []model.Round {
	recs := reg.Records()
	out := make([]model.Round, len(recs))
	for i, rec := range recs {
		out[i] = rec.Key.Round
	}
	return out
}

// Policy turns conviction tallies into judgments. The zero value is
// reporting-only (no evictions) — the pre-punishment-loop behaviour.
type Policy struct {
	// ConvictionThreshold is how many deduplicated facts convict; 0
	// disables the punishment loop entirely.
	ConvictionThreshold int
	// QuarantineRounds is how long an evicted node's id stays barred from
	// re-joining the membership.
	QuarantineRounds int
}

// Enabled reports whether the punishment loop is armed.
func (p Policy) Enabled() bool { return p.ConvictionThreshold > 0 }

// Judgment is one conviction the policy pronounced: the driver evicts the
// node and quarantines its id until the recorded round.
type Judgment struct {
	Round    model.Round
	Node     model.NodeID
	Verdicts int
	// QuarantineUntil is the first round the id may re-join.
	QuarantineUntil model.Round
}

// Bench tracks which convictions a policy has already pronounced, so a
// node is judged once per conviction — and judged again only if fresh
// evidence accumulates after a re-join (the tally baseline resets at each
// judgment, which is what catches a recidivist Sybil re-joining under its
// old id).
type Bench struct {
	policy Policy
	// base is the fact count already consumed by past judgments.
	base map[model.NodeID]int
}

// NewBench creates a bench for the policy.
func NewBench(p Policy) *Bench {
	return &Bench{policy: p, base: make(map[model.NodeID]int)}
}

// Policy returns the bench's policy.
func (b *Bench) Policy() Policy { return b.policy }

// Judge compares the registry's tallies against the threshold and returns
// the new judgments of round r in ascending node order. The skip set lists
// nodes never to judge (the session's source and already-departed nodes).
func (b *Bench) Judge(r model.Round, reg *Registry, skip func(model.NodeID) bool) []Judgment {
	if !b.policy.Enabled() {
		return nil
	}
	counts := reg.Counts()
	ids := make([]model.NodeID, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []Judgment
	for _, id := range ids {
		fresh := counts[id] - b.base[id]
		if fresh < b.policy.ConvictionThreshold {
			continue
		}
		if skip != nil && skip(id) {
			continue
		}
		b.base[id] = counts[id]
		out = append(out, Judgment{
			Round:           r,
			Node:            id,
			Verdicts:        fresh,
			QuarantineUntil: r + model.Round(b.policy.QuarantineRounds),
		})
	}
	return out
}
