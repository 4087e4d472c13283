package core

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/hhash"
	"repro/internal/judicial"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/pki"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// discard is an Endpoint that drops what it is sent, so a measurement
// counts what a node allocates and not what its network does.
type discard struct{ id model.NodeID }

func (d discard) NodeID() model.NodeID                 { return d.id }
func (discard) Send(model.NodeID, uint8, []byte) error { return nil }
func (discard) Lend(payload []byte) []byte             { return payload }

// TestSteadyAdmissionAllocatesNothing: once a session runs in steady
// state, a node admits and handles the messages each exchange brings it —
// an Attestation and an Ack of its own exchanges, and as a monitor a
// HashShare, an AckForward and a NodeDigest — without allocating: each
// decodes into the node's shell for its rule, each hash value into the
// node's scratch or the record that keeps it, and what the handler sends
// is built in the node's outgoing messages. Each message is one the
// session delivered in its last round, handed to its receiver again with
// what handling it recorded undone, so the handler takes its whole path;
// the receiver's sends are dropped, so the network's costs are not
// counted.
func TestSteadyAdmissionAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const members, rounds = 16, 8
	suite := pki.NewFastSuite()
	params, err := hhash.GenerateParams(nil, 128)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]model.NodeID, members)
	for i := range ids {
		ids[i] = model.NodeID(i + 1)
	}
	dir, err := membership.New(ids, membership.Config{Seed: 42, Fanout: 3, Monitors: 3})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemNet()
	engine, err := sim.NewEngine(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	shared := NewShared(Shared{Suite: suite, HashParams: params, Directory: dir, Source: 1})
	nodes := map[model.NodeID]*Node{}
	var last []transport.Message // what the last round delivered
	recording := false
	for _, id := range ids {
		identity, err := suite.NewIdentity(id)
		if err != nil {
			t.Fatal(err)
		}
		var n *Node
		ep, err := net.Register(id, func(m transport.Message) {
			if recording {
				m.Payload = bytes.Clone(m.Payload)
				last = append(last, m)
			}
			n.HandleMessage(m)
		})
		if err != nil {
			t.Fatal(err)
		}
		if n, err = NewNode(Config{ID: id, Identity: identity, Endpoint: ep, Shared: shared,
			Verdicts: func(v judicial.Verdict) { t.Errorf("verdict %v", v) }}); err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
		engine.Add(n)
	}
	gen, err := update.NewGenerator(nodes[1].cfg.Identity, 64, model.PlayoutDelayRounds)
	if err != nil {
		t.Fatal(err)
	}
	engine.OnRoundStart(func(r model.Round) {
		us, err := gen.Emit(r, 2)
		if err != nil {
			t.Fatal(err)
		}
		nodes[1].InjectUpdates(us)
	})
	engine.Run(rounds - 1)
	recording = true
	engine.Run(1)
	r := model.Round(rounds)

	// Per kind: undo forgets what handling m recorded at its receiver n,
	// and done reports that handling it again recorded it anew.
	type handled struct {
		undo func(n *Node, m transport.Message)
		done func(n *Node, m transport.Message) bool
	}
	share := func(m transport.Message) (s wire.HashShare) {
		if s.Decode(m.Payload) != nil {
			t.Fatal("undecodable HashShare")
		}
		return s
	}
	relayed := func(m transport.Message) (ack wire.Ack) {
		var relay wire.AckRelay
		if relay.Decode(m.Payload) != nil || ack.Decode(relay.AckBytes) != nil {
			t.Fatal("undecodable AckForward")
		}
		return ack
	}
	cases := map[uint8]handled{
		wire.KindAttestation: {
			undo: func(n *Node, m transport.Message) {
				ex := n.recv.exchange(m.From)
				ex.attBytes, ex.ackBytes = nil, nil
			},
			done: func(n *Node, m transport.Message) bool { return n.recv.exchange(m.From).ackBytes != nil },
		},
		wire.KindAck: {
			undo: func(n *Node, m transport.Message) {
				ex := n.send.exchange(m.From)
				ex.acked, ex.ackBytes = false, nil
			},
			done: func(n *Node, m transport.Message) bool { return n.send.exchange(m.From).acked },
		},
		wire.KindHashShare: {
			undo: func(n *Node, m transport.Message) {
				s := share(m)
				n.mon.find(r, s.Monitored).find(s.Pred).shared = false
			},
			done: func(n *Node, m transport.Message) bool {
				s := share(m)
				return n.mon.find(r, s.Monitored).find(s.Pred).shared
			},
		},
		wire.KindAckForward: {
			undo: func(n *Node, m transport.Message) {
				st := n.mon.find(r, relayed(m).To)
				st.acks = st.acks[:0] // the slots keep their storage, as a reset does
			},
			done: func(n *Node, m transport.Message) bool {
				ack := relayed(m)
				return n.mon.find(r, ack.To).ackOf(ack.From) != nil
			},
		},
		wire.KindNodeDigest: {
			undo: func(n *Node, m transport.Message) { n.mon.find(r, m.From).hasDigest = false },
			done: func(n *Node, m transport.Message) bool { return n.mon.find(r, m.From).hasDigest },
		},
	}
	for _, kind := range []uint8{wire.KindAttestation, wire.KindAck, wire.KindHashShare, wire.KindAckForward, wire.KindNodeDigest} {
		i := slices.IndexFunc(last, func(m transport.Message) bool { return m.Kind == kind })
		if i < 0 {
			t.Fatalf("round %v delivered no %s", r, wire.KindName(kind))
		}
		m, c := last[i], cases[kind]
		n := nodes[m.To]
		n.cfg.Endpoint = discard{n.id}
		mark := len(n.evidence)
		allocs := testing.AllocsPerRun(100, func() {
			c.undo(n, m)
			n.evidence = n.evidence[:mark]
			n.HandleMessage(m)
		})
		if !c.done(n, m) {
			t.Errorf("%s: handling it again recorded nothing", wire.KindName(kind))
		}
		if allocs != 0 {
			t.Errorf("%s: admitting and handling allocates %.2f objects per message", wire.KindName(kind), allocs)
		}
	}
}
