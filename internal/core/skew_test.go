package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// TestPhaseSkewTolerance simulates the phase skew a real network exhibits:
// some nodes begin round r+1 and send their KeyRequests while others are
// still closing round r. With the deferral buffer, no verdicts arise and
// dissemination is unharmed.
func TestPhaseSkewTolerance(t *testing.T) {
	h := newHarness(t, 12, 2)
	// Drive rounds with a skewed schedule: node IDs 1..6 advance one
	// step before 7..12 in every step (messages flow between the two
	// halves in both directions at every boundary).
	skewed := func(step func(*core.Node)) {
		for id := model.NodeID(1); id <= 6; id++ {
			step(h.nodes[id])
		}
		h.net.DeliverAll() // first half's traffic lands early
		for id := model.NodeID(7); id <= 12; id++ {
			step(h.nodes[id])
		}
		h.net.DeliverAll()
	}
	for r := model.Round(1); r <= 14; r++ {
		h.runRound(r, skewed)
	}

	h.requireNoVerdictsExcept()
	for id, n := range h.nodes {
		if id == h.source {
			continue
		}
		if n.Stats().UpdatesDelivered == 0 {
			t.Fatalf("node %v delivered nothing under skew", id)
		}
	}
}

// TestStaleMessagesDroppedSilently: messages from a past round (e.g. a
// very late ack) are discarded without raising verdicts.
func TestStaleMessagesDroppedSilently(t *testing.T) {
	h := newHarness(t, 12, 1)
	h.engine.Run(3)

	// Capture a round-3 exchange message by replaying traffic: easiest
	// is to advance one node past the others and let its round-4
	// messages arrive "early" (deferred), then never catch up — the
	// deferral path plus stale-drop must not convict anyone.
	h.nodes[2].BeginRound(4) // node 2 runs ahead on its own
	h.net.DeliverAll()       // its KeyRequests arrive as round-4 at round-3 peers
	h.engine.Run(2)          // the rest of the system catches up and passes it

	for _, v := range h.verdicts {
		if v.Kind == core.VerdictBadMessage {
			t.Fatalf("skew produced a BadMessage verdict: %v", v)
		}
	}
}
