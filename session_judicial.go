package pag

import (
	"repro/internal/model"
	"repro/internal/obs"
)

// This file closes the accountability loop (§II-B: "the monitors generate
// a proof of misbehaviour and the misbehaving nodes get punished"): at the
// top of every round the judicial bench compares the registry's
// deduplicated conviction tallies against the armed policy and evicts the
// convicted from the membership. Eviction opens a membership epoch —
// excluding the node from every successor and monitor assignment drawn
// afterwards — and quarantines its id, so a re-Join during the quarantine
// is rejected.

// Eviction is one pronounced judgment: a node whose deduplicated verdict
// count crossed the policy threshold. Err records a membership that could
// not shrink (system already at minimum size) — the conviction stands,
// the node stays, and its monitors keep convicting it.
type Eviction struct {
	Round model.Round  `json:"round"`
	Node  model.NodeID `json:"node"`
	// Verdicts is the fresh (since the node's last judgment) fact count
	// that convicted it.
	Verdicts int `json:"verdicts"`
	// QuarantineUntil is the first round the id may re-join.
	QuarantineUntil model.Round `json:"quarantine_until,omitempty"`
	Err             string      `json:"error,omitempty"`
}

// RejoinRejection is one Join attempt bounced by an active quarantine.
type RejoinRejection struct {
	Round model.Round  `json:"round"`
	Node  model.NodeID `json:"node"`
	// Until is the quarantine expiry the attempt ran into.
	Until model.Round `json:"until"`
}

// applyJudgments runs at the top of round r, single-threaded, before the
// scenario timeline and the source: it evicts every node the bench
// convicts on the evidence of completed rounds. Determinism: the registry
// tallies are order-independent, the bench judges in ascending node
// order, and everything here happens before any node acts in the round.
func (s *Session) applyJudgments(r model.Round) {
	judgments := s.bench.Judge(r, s.registry, func(id model.NodeID) bool {
		if id == SourceID {
			return true // the source is assumed correct (§III)
		}
		_, gone := s.departed[id]
		return gone // already left, crashed or evicted
	})
	for _, j := range judgments {
		ev := Eviction{
			Round:           j.Round,
			Node:            j.Node,
			Verdicts:        j.Verdicts,
			QuarantineUntil: j.QuarantineUntil,
		}
		// The judgment record links the verdict facts (each carrying its
		// exchange's xid) to the membership_eviction the directory emits
		// next — the middle link of a pag-trace blame chain.
		s.cfg.Trace.Emit("judgment",
			obs.F("round", j.Round), obs.F("node", j.Node),
			obs.F("verdicts", j.Verdicts),
			obs.F("quarantine_until", j.QuarantineUntil))
		if err := s.dir.Evict(j.Node, r, j.QuarantineUntil); err != nil {
			ev.Err = err.Error()
			s.evictions = append(s.evictions, ev)
			continue
		}
		s.depart(j.Node, r)
		s.evicted[j.Node] = true
		s.bumpEpoch(r)
		s.evictions = append(s.evictions, ev)
	}
}

// Evictions returns the punishment loop's judgments so far (empty without
// an armed policy).
func (s *Session) Evictions() []Eviction {
	out := make([]Eviction, len(s.evictions))
	copy(out, s.evictions)
	return out
}

// RejoinRejections returns the Join attempts bounced by quarantines.
func (s *Session) RejoinRejections() []RejoinRejection {
	out := make([]RejoinRejection, len(s.rejoinRejections))
	copy(out, s.rejoinRejections)
	return out
}

// countInWindow counts rounds in [from, to] — shared by the per-epoch
// event tallies.
func countInWindow(rounds []model.Round, from, to model.Round) int {
	n := 0
	for _, r := range rounds {
		if r >= from && r <= to {
			n++
		}
	}
	return n
}
