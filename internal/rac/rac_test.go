package rac_test

import (
	"testing"

	"repro/internal/judicial"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/pki"
	"repro/internal/rac"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/update"
)

type harness struct {
	t        *testing.T
	suite    *pki.FastSuite
	net      *transport.MemNet
	engine   *sim.Engine
	nodes    map[model.NodeID]*rac.Node
	source   model.NodeID
	verdicts []judicial.Verdict
}

func newHarness(t *testing.T, n, perRound int, behaviors map[model.NodeID]rac.Behavior) *harness {
	t.Helper()
	h := &harness{
		t:      t,
		suite:  pki.NewFastSuite(),
		net:    transport.NewMemNet(),
		nodes:  make(map[model.NodeID]*rac.Node),
		source: 1,
	}
	ids := make([]model.NodeID, n)
	for i := range ids {
		ids[i] = model.NodeID(i + 1)
	}
	dir, err := membership.New(ids, membership.Config{Seed: 3, Fanout: 3, Monitors: 3})
	if err != nil {
		t.Fatal(err)
	}
	h.engine, _ = sim.NewEngine(h.net, 0)

	identities := make(map[model.NodeID]pki.Identity, n)
	for _, id := range ids {
		identity, err := h.suite.NewIdentity(id)
		if err != nil {
			t.Fatal(err)
		}
		identities[id] = identity
		cfg := rac.Config{
			ID:        id,
			Suite:     h.suite,
			Identity:  identity,
			Directory: dir,
			Source:    h.source,
			SlotBytes: 64,
			Behavior:  behaviors[id],
			Verdicts:  func(v judicial.Verdict) { h.verdicts = append(h.verdicts, v) },
		}
		var node *rac.Node
		ep, err := h.net.Register(id, func(m transport.Message) { node.HandleMessage(m) })
		if err != nil {
			t.Fatal(err)
		}
		cfg.Endpoint = ep
		node, err = rac.NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h.nodes[id] = node
		h.engine.Add(node)
	}

	gen, err := update.NewGenerator(identities[h.source], 64, model.PlayoutDelayRounds)
	if err != nil {
		t.Fatal(err)
	}
	h.engine.OnRoundStart(func(r model.Round) {
		if perRound == 0 {
			return
		}
		us, err := gen.Emit(r, perRound)
		if err != nil {
			t.Fatalf("emit: %v", err)
		}
		h.nodes[h.source].InjectUpdates(us)
	})
	return h
}

func TestRACBroadcastDelivery(t *testing.T) {
	h := newHarness(t, 12, 1, nil)
	h.engine.Run(14)
	for id, n := range h.nodes {
		if got := n.Stats().UpdatesDelivered; got < 2 {
			t.Errorf("node %v delivered %d updates", id, got)
		}
	}
	if len(h.verdicts) != 0 {
		t.Fatalf("verdicts against a correct ring: %v", h.verdicts)
	}
}

// TestRACCoverTrafficUniform is the anonymity property: an observer who
// counts emitted slots cannot tell the source from any other member.
func TestRACCoverTrafficUniform(t *testing.T) {
	h := newHarness(t, 10, 1, nil)
	h.engine.Run(6)
	var want uint64
	for id, n := range h.nodes {
		got := n.Stats().SlotsEmitted
		if want == 0 {
			want = got
		}
		if got != want {
			t.Fatalf("node %v emitted %d slots, others %d — source identifiable",
				id, got, want)
		}
	}
}

// TestRACBandwidthLinearInN is Table II's shape: per-node bandwidth grows
// linearly with the membership.
func TestRACBandwidthLinearInN(t *testing.T) {
	meanAt := func(n int) float64 {
		h := newHarness(t, n, 1, nil)
		h.engine.Run(2)
		h.engine.StartMeasuring()
		h.engine.Run(6)
		return h.engine.BandwidthSample().Mean()
	}
	small, big := meanAt(8), meanAt(24)
	ratio := big / small
	if ratio < 2 || ratio > 4.5 {
		t.Fatalf("bandwidth ratio for 3x nodes = %.2f, want ≈3 (linear)", ratio)
	}
}

func TestRACRelayDropperDetected(t *testing.T) {
	const cheat = model.NodeID(5)
	h := newHarness(t, 10, 1, map[model.NodeID]rac.Behavior{
		cheat: {DropRelays: true},
	})
	h.engine.Run(4)
	found := false
	for _, v := range h.verdicts {
		if v.Accused == cheat && v.Kind == rac.VerdictDroppedSlots {
			found = true
		}
	}
	if !found {
		t.Fatalf("relay dropper not flagged; verdicts: %v", h.verdicts)
	}
}

func TestRACCoverSkipperDetected(t *testing.T) {
	const cheat = model.NodeID(7)
	h := newHarness(t, 10, 0, map[model.NodeID]rac.Behavior{
		cheat: {NoCover: true},
	})
	h.engine.Run(4)
	blamed := map[model.NodeID]bool{}
	for _, v := range h.verdicts {
		blamed[v.Accused] = true
	}
	if !blamed[cheat] {
		t.Fatalf("cover skipper not flagged; verdicts: %v", h.verdicts)
	}
	if len(blamed) > 1 {
		t.Fatalf("false positives: %v", h.verdicts)
	}
}

func TestRACNodeValidation(t *testing.T) {
	if _, err := rac.NewNode(rac.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestRACVerdictString(t *testing.T) {
	if rac.VerdictDroppedSlots != "DroppedSlots" {
		t.Fatal("kind string")
	}
}
