package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/hhash"
	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestByzantineGarbageDoesNotPanic fires random bytes at a live node under
// every message kind: the node must absorb them (raising BadMessage
// verdicts at worst) and keep disseminating.
func TestByzantineGarbageDoesNotPanic(t *testing.T) {
	h := newHarness(t, 12, 1)
	h.engine.Run(2)

	rng := rand.New(rand.NewSource(5))
	kinds := []uint8{
		wire.KindKeyRequest, wire.KindKeyResponse, wire.KindServe,
		wire.KindAttestation, wire.KindAck, wire.KindAckCopy,
		wire.KindAttForward, wire.KindHashShare, wire.KindAckForward,
		wire.KindNodeDigest, wire.KindAccusation, wire.KindProbe,
		wire.KindConfirm, wire.KindNack, wire.KindAckRequest,
		wire.KindAckExhibit, 99, // unknown kind too
	}
	target := h.nodes[3]
	for _, kind := range kinds {
		for trial := 0; trial < 50; trial++ {
			buf := make([]byte, rng.Intn(200))
			rng.Read(buf)
			target.HandleMessage(transport.Message{
				From: 7, To: 3, Kind: kind, Payload: buf,
			})
		}
	}

	// The node keeps working afterwards.
	h.verdicts = nil
	h.engine.Run(10)
	for _, v := range h.verdicts {
		if v.Kind != core.VerdictBadMessage {
			t.Fatalf("garbage caused a protocol verdict: %v", v)
		}
	}
	if h.deliveredAt(3) == 0 {
		t.Fatal("node 3 stopped delivering after garbage")
	}
}

// TestForgedSignaturesRejected: a message claiming to come from another
// node with a bogus signature must be rejected with a BadMessage verdict
// and must not corrupt protocol state.
func TestForgedSignaturesRejected(t *testing.T) {
	h := newHarness(t, 12, 1)
	h.engine.Run(1)

	forged := &wire.KeyRequest{Round: 2, From: 5, To: 3, Sig: make([]byte, 256)}
	h.nodes[3].HandleMessage(transport.Message{
		From: 5, To: 3, Kind: wire.KindKeyRequest, Payload: forged.Marshal(),
	})
	// Deliver the (possibly deferred) forgery by advancing a round.
	h.engine.Run(1)

	sawBadSig := false
	for _, v := range h.verdicts {
		if v.Kind == core.VerdictBadMessage && v.Accused == 5 {
			sawBadSig = true
		}
	}
	if !sawBadSig {
		t.Fatal("forged KeyRequest not flagged")
	}
	// And the session stays healthy.
	h.verdicts = nil
	h.engine.Run(12)
	h.requireNoVerdictsExcept()
}

// TestReplayedAckIgnored: replaying a stale captured Ack must not confuse
// the sender-side state.
func TestReplayedAckIgnored(t *testing.T) {
	h := newHarness(t, 12, 1)
	h.engine.Run(5)
	before := len(h.verdicts)

	// Replay: an Ack for a long-gone round.
	ack := &wire.Ack{Round: 2, From: 4, To: 3, H: []byte{1}, Sig: make([]byte, 256)}
	h.nodes[3].HandleMessage(transport.Message{
		From: 4, To: 3, Kind: wire.KindAck, Payload: ack.Marshal(),
	})
	h.engine.Run(6)
	for _, v := range h.verdicts[before:] {
		t.Fatalf("replayed ack caused verdict: %v", v)
	}
}

// TestServeBadMultiplicityRejected: a Serve correctly signed by a Byzantine
// predecessor whose multiplicities are unusable — zero (no hash key
// exists for it) or so large that the receiver's sums could wrap to zero —
// costs the sender one BadMessage verdict and changes nothing: no panic,
// no stored update, no reception counted, and the node keeps going.
func TestServeBadMultiplicityRejected(t *testing.T) {
	h := newHarness(t, 8, 2)
	h.engine.Run(3)
	const b = model.NodeID(3) // the receiver
	node := h.nodes[b]
	round := node.Round()
	// The signer: a member whose exchange with b this round is not already
	// closed, so its Serve is processed rather than dropped as a duplicate.
	a := model.NoNode
	preds := h.dir.Predecessors(b, round)
	for _, id := range h.dir.MembersAt(round) {
		if id != b && id != h.source && !slices.Contains(preds, id) {
			a = id
			break
		}
	}
	if a == model.NoNode {
		t.Fatal("every member is a predecessor of the receiver")
	}
	fresh, err := h.gen.Emit(round, 1)
	if err != nil {
		t.Fatal(err)
	}
	owned := node.Store().OwnedInWindow(round, 4)
	if len(owned) == 0 {
		t.Fatal("receiver owns nothing to reference")
	}
	ref, refCount := owned[0].Update.ID, owned[0].Count

	for _, tc := range []struct {
		name string
		srv  *wire.Serve
	}{
		{"zero count on a full update", &wire.Serve{
			Full: []wire.ServedUpdate{{Update: fresh[0], Count: 0}}}},
		{"zero count on a reference", &wire.Serve{
			Refs: []wire.ServedRef{{ID: ref, Count: 0}}}},
		{"zero count after a valid item", &wire.Serve{
			Full: []wire.ServedUpdate{{Update: fresh[0], Count: 1}},
			Refs: []wire.ServedRef{{ID: ref, Count: 0}}}},
		{"count that wraps the sum", &wire.Serve{
			Full: []wire.ServedUpdate{{Update: fresh[0], Count: ^uint64(0)}},
			Refs: []wire.ServedRef{{ID: fresh[0].ID, Count: 1}}}},
	} {
		tc.srv.Round, tc.srv.From, tc.srv.To = round, a, b
		tc.srv.KPrev = hhash.OneKey().Bytes()
		cipher, err := h.suite.Encrypt(b, sealMsg(t, h.identities[a], tc.srv))
		if err != nil {
			t.Fatal(err)
		}
		before, stats := len(h.verdicts), node.Stats()
		node.HandleMessage(transport.Message{From: a, To: b, Kind: wire.KindServe, Payload: cipher})
		got := h.verdicts[before:]
		if len(got) != 1 || got[0].Kind != core.VerdictBadMessage || got[0].Accused != a {
			t.Fatalf("%s: verdicts %v, want one BadMessage against %v", tc.name, got, a)
		}
		if node.Store().Has(fresh[0].ID) {
			t.Fatalf("%s: the served update was stored", tc.name)
		}
		if e := node.Store().Get(ref); e.Count != refCount {
			t.Fatalf("%s: referenced entry's count moved %d -> %d", tc.name, refCount, e.Count)
		}
		if after := node.Stats(); after.UpdatesReceived != stats.UpdatesReceived || after.DuplicateReceptions != stats.DuplicateReceptions {
			t.Fatalf("%s: reception counters moved", tc.name)
		}
	}

	// Nothing unusable reached the forward set: the next rounds serve it.
	received := node.Stats().UpdatesReceived
	h.engine.Run(3)
	if node.Stats().UpdatesReceived == received {
		t.Fatal("receiver stopped receiving")
	}
}
