package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hhash"
	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// TestBuffermapTagCollisionOutcome pins what a 64-bit tag collision does
// (DESIGN.md, "Bytes on the wire"). A real one needs two distinct lifted
// hashes agreeing on 64 bits, so the test builds its effect instead: the
// KeyResponse one successor B sends the source in round 3 is re-sealed
// with one extra tag — that of an update minted this round, which B cannot
// own. The source then serves it as a reference, and the exchange fails the
// way it does for any reference B cannot resolve: B refuses the whole Serve
// ("ref to unowned update", against the sender) and does not acknowledge;
// the accusation flow replays the Serve through B's monitors with the same
// result, so they find B unresponsive; and next round B cannot forward
// what the sender's attestation says it received, so they find its forward
// wrong. Nobody else is touched, B gets the content from its other
// predecessors, and every node plays the whole stream.
func TestBuffermapTagCollisionOutcome(t *testing.T) {
	const src, collideAt = model.NodeID(1), model.Round(3)
	h := newHarness(t, 16, 2)
	hasher := hhash.NewHasher(h.params, nil)
	var victim model.NodeID // B, the first successor to answer in the round
	var collided model.UpdateID
	h.deliver = func(n *core.Node, m transport.Message) {
		if m.Kind == wire.KindKeyResponse && m.To == src && n.Round() == collideAt && victim == model.NoNode {
			victim = m.From
			plain, err := h.identities[src].Decrypt(m.Payload)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := wire.UnmarshalKeyResponse(plain)
			if err != nil {
				t.Fatal(err)
			}
			prime, err := hhash.KeyFromBytes(resp.Prime)
			if err != nil {
				t.Fatal(err)
			}
			minted := n.Store().OwnedInWindow(collideAt, 1)
			if len(minted) == 0 {
				t.Fatal("the source minted nothing this round")
			}
			collided = minted[0].Update.ID
			tag := h.params.Tag(hasher.Lift(hasher.Embed(minted[0].Update.CanonicalBytes()), prime))
			resp.BufferMap = update.NewBufferMap(append(resp.BufferMap, tag))
			resp.Sig = nil
			if m.Payload, err = h.suite.Encrypt(src, sealMsg(t, h.identities[victim], resp)); err != nil {
				t.Fatal(err)
			}
		}
		n.HandleMessage(m)
	}
	h.engine.Run(16)

	if victim == model.NoNode {
		t.Fatal("no KeyResponse reached the source in the collision round")
	}
	seen := map[core.VerdictKind]int{}
	for _, v := range h.verdicts {
		switch {
		case v.Kind == core.VerdictBadMessage && v.Accused == src && v.Reporter == victim && v.Round == collideAt &&
			v.Detail == "ref to unowned update "+collided.String():
		case v.Kind == core.VerdictUnresponsive && v.Accused == victim && v.Round == collideAt:
		case v.Kind == core.VerdictWrongForward && v.Accused == victim && v.Round == collideAt+1:
		default:
			t.Errorf("verdict beyond the documented outcome: %v", v)
		}
		seen[v.Kind]++
	}
	if seen[core.VerdictBadMessage] == 0 || seen[core.VerdictUnresponsive] == 0 || seen[core.VerdictWrongForward] == 0 {
		t.Fatalf("verdicts by kind %v: want the refused reference, the unanswered probe and the missed obligation", seen)
	}
	// The victim got the update anyway and plays the whole stream.
	if h.nodes[victim].Store().Get(collided) == nil {
		t.Errorf("node %v never received update %v", victim, collided)
	}
	want := h.deliveredAt(src)
	for id := range h.nodes {
		if got := h.deliveredAt(id); got != want {
			t.Errorf("node %v delivered %d updates, the source %d", id, got, want)
		}
	}
}
