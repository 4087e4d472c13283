package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hhash"
	"repro/internal/judicial"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/pki"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/update"
)

// TestMultipleSessions exercises §III's "several gossip sessions
// disseminating different contents can hold simultaneously": two sources,
// two streams, one shared monitoring fabric. This is also the substrate of
// the paper's future-work obfuscation idea (nodes receiving several
// contents at once hide which one they are interested in).
func TestMultipleSessions(t *testing.T) {
	const (
		nNodes  = 14
		sourceA = model.NodeID(1)
		sourceB = model.NodeID(2)
	)
	suite := pki.NewFastSuite()
	params, err := hhash.GenerateParams(nil, 128)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]model.NodeID, nNodes)
	for i := range ids {
		ids[i] = model.NodeID(i + 1)
	}
	dir, err := membership.New(ids, membership.Config{Seed: 21, Fanout: 3, Monitors: 3})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemNet()
	engine, _ := sim.NewEngine(net, 0)
	shared := core.NewShared(core.Shared{
		Suite:      suite,
		HashParams: params,
		Directory:  dir,
		// Stream 0 → sourceA, stream 1 → sourceB.
		Sources: []model.NodeID{sourceA, sourceB},
	})

	var verdicts []judicial.Verdict
	nodes := make(map[model.NodeID]*core.Node, nNodes)
	identities := make(map[model.NodeID]pki.Identity, nNodes)
	// deliveries[node][stream] counts per-stream deliveries.
	deliveries := make(map[model.NodeID]map[model.StreamID]int, nNodes)

	for _, id := range ids {
		identity, err := suite.NewIdentity(id)
		if err != nil {
			t.Fatal(err)
		}
		identities[id] = identity
		perStream := make(map[model.StreamID]int)
		deliveries[id] = perStream

		var node *core.Node
		ep, err := net.Register(id, func(m transport.Message) { node.HandleMessage(m) })
		if err != nil {
			t.Fatal(err)
		}
		node, err = core.NewNode(core.Config{
			ID:        id,
			Identity:  identity,
			Endpoint:  ep,
			IsSource:  id == sourceA || id == sourceB,
			Shared:    shared,
			Verdicts:  func(v judicial.Verdict) { verdicts = append(verdicts, v) },
			OnDeliver: func(u update.Update) { perStream[u.ID.Stream]++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
		engine.Add(node)
	}

	genA, err := update.NewGenerator(0, identities[sourceA], 64, 6)
	if err != nil {
		t.Fatal(err)
	}
	genB, err := update.NewGenerator(1, identities[sourceB], 64, 6)
	if err != nil {
		t.Fatal(err)
	}
	engine.OnRoundStart(func(r model.Round) {
		usA, err := genA.Emit(r, 2)
		if err != nil {
			t.Fatal(err)
		}
		nodes[sourceA].InjectUpdates(usA)
		usB, err := genB.Emit(r, 1)
		if err != nil {
			t.Fatal(err)
		}
		nodes[sourceB].InjectUpdates(usB)
	})

	engine.Run(14)

	for _, v := range verdicts {
		t.Fatalf("verdict in an honest two-session run: %v", v)
	}
	for _, id := range ids {
		if id == sourceA || id == sourceB {
			continue
		}
		if deliveries[id][0] == 0 {
			t.Errorf("node %v received nothing of stream 0", id)
		}
		if deliveries[id][1] == 0 {
			t.Errorf("node %v received nothing of stream 1", id)
		}
	}
	// Interleaved contents share one obligation per node per round: a
	// node's monitors cannot even tell the two streams apart (the
	// obfuscation property the paper's conclusion sketches).
}
