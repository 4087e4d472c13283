package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestExchangeOmissionsRecovered: the paper claims the monitoring
// infrastructure "handle[s] omission failures" through the accusation flow
// (§IV-A). Drop a fraction of exchange-layer messages (Serve/Attestation/
// Ack — monitor traffic rides the reliable transport, as in the paper's
// TCP deployment) and verify that dissemination still completes and no
// honest node is convicted.
func TestExchangeOmissionsRecovered(t *testing.T) {
	h := newHarness(t, 16, 2)
	rng := rand.New(rand.NewSource(13))
	h.net.Faults().SetDropFunc(func(m transport.Message) bool {
		switch m.Kind {
		case wire.KindServe, wire.KindAttestation, wire.KindAck:
			return rng.Float64() < 0.05 // 5% exchange-layer loss
		default:
			return false
		}
	})
	h.engine.Run(16)

	if h.net.Faults().Dropped() == 0 {
		t.Fatal("drop injection did not fire")
	}
	// Omissions must not convict anyone: the accusation/probe flow
	// re-delivers lost serves and recovers lost acks.
	for _, v := range h.verdicts {
		if v.Kind != core.VerdictBadMessage {
			t.Fatalf("omission caused a conviction: %v", v)
		}
	}
	// Dissemination still completes.
	for id, n := range h.nodes {
		if id == h.source {
			continue
		}
		if n.Stats().UpdatesDelivered == 0 {
			t.Errorf("node %v starved under 5%% loss", id)
		}
	}
	// And the recovery machinery actually ran.
	accusations := uint64(0)
	for _, n := range h.nodes {
		accusations += n.Stats().AccusationsSent
	}
	if accusations == 0 {
		t.Fatal("no accusations despite injected omissions")
	}
}

// TestNashIncentive quantifies §VI's game-theoretic claim ("PAG is a Nash
// equilibrium, which means that selfish nodes have no interest in
// deviating"): a rational NoAck deviant — it still answers probes to avoid
// conviction — saves no meaningful bandwidth, because every skipped ack is
// replaced by a costlier accusation/probe/confirm exchange.
func TestNashIncentive(t *testing.T) {
	const deviant = model.NodeID(6)

	run := func(deviate bool) (deviantBW, compliantBW float64) {
		var h *harness
		if deviate {
			h = newHarness(t, 16, 2, withBehavior(deviant, core.Behavior{NoAck: true}))
		} else {
			h = newHarness(t, 16, 2)
		}
		h.engine.Run(3)
		h.engine.StartMeasuring()
		h.engine.Run(10)
		var others, n float64
		for id := range h.nodes {
			bw := h.engine.NodeBandwidthKbps(id)
			if id == deviant {
				deviantBW = bw
			} else if id != h.source {
				others += bw
				n++
			}
		}
		return deviantBW, others / n
	}

	honestBW, _ := run(false)
	deviantBW, compliantBW := run(true)

	// The deviation must not pay: the deviant's bandwidth is not
	// meaningfully below what it would spend complying (tolerate 5%
	// noise), so a rational node has no incentive to deviate.
	if deviantBW < honestBW*0.95 {
		t.Fatalf("NoAck deviation paid off: %0.f kbps deviant vs %0.f honest",
			deviantBW, honestBW)
	}
	// Sanity: the rest of the system keeps working around it.
	if compliantBW <= 0 {
		t.Fatal("compliant nodes measured no traffic")
	}
}

// TestFreeRiderLosesService: the complementary incentive — a node convicted
// of refusing reception keeps being probed rather than served normally, so
// its deviation buys nothing while its guilt accumulates round after round.
func TestFreeRiderLosesService(t *testing.T) {
	const hermit = model.NodeID(11)
	h := newHarness(t, 16, 2, withBehavior(hermit, core.Behavior{RefuseReceive: true}))
	h.engine.Run(14)

	convictions := 0
	for _, v := range h.verdictsAgainst(hermit) {
		if v.Kind == core.VerdictUnresponsive {
			convictions++
		}
	}
	if convictions < 3 {
		t.Fatalf("persistent refusal produced only %d convictions", convictions)
	}
	// The refuser receives nothing: R1's flip side.
	if got := h.deliveredAt(hermit); got != 0 {
		t.Fatalf("refusing node still delivered %d updates", got)
	}
}
