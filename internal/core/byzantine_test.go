package core_test

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/hhash"
	"repro/internal/judicial"
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
	owned := node.Store().Live(nil, round)
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

// TestServeUnknownStreamRejected: a session carries stream 0 alone. A
// Serve correctly signed by a Byzantine predecessor that carries an update
// of any other stream costs the sender one BadMessage verdict and stores
// nothing.
func TestServeUnknownStreamRejected(t *testing.T) {
	h := newHarness(t, 8, 2)
	h.engine.Run(3)
	const b = model.NodeID(3)
	node := h.nodes[b]
	round := node.Round()
	a := h.nonPredecessor(b, round)
	fresh, err := h.gen.Emit(round, 1)
	if err != nil {
		t.Fatal(err)
	}
	u := fresh[0]
	u.ID.Stream = 1
	srv := &wire.Serve{Round: round, From: a, To: b, KPrev: hhash.OneKey().Bytes(),
		Full: []wire.ServedUpdate{{Update: u, Count: 1}}}
	cipher, err := h.suite.Encrypt(b, sealMsg(t, h.identities[a], srv))
	if err != nil {
		t.Fatal(err)
	}
	before := len(h.verdicts)
	node.HandleMessage(transport.Message{From: a, To: b, Kind: wire.KindServe, Payload: cipher})
	got := h.verdicts[before:]
	if len(got) != 1 || got[0].Kind != core.VerdictBadMessage || got[0].Accused != a ||
		got[0].Detail != "update for unknown stream" {
		t.Fatalf("verdicts %v, want one BadMessage %q against %v", got, "update for unknown stream", a)
	}
	if node.Store().Has(u.ID) || node.Store().Has(fresh[0].ID) {
		t.Fatal("the served update was stored")
	}
}

// nonPredecessor returns a member other than the source that is neither b
// nor one of b's predecessors in round r.
func (h *harness) nonPredecessor(b model.NodeID, r model.Round) model.NodeID {
	h.t.Helper()
	preds := h.dir.Predecessors(b, r)
	for _, id := range h.dir.MembersAt(r) {
		if id != b && id != h.source && !slices.Contains(preds, id) {
			return id
		}
	}
	h.t.Fatal("every member is a predecessor of the receiver")
	return model.NoNode
}

// TestServeFromNonPredecessorRejected: a well-formed Serve of a genuine
// update, correctly signed by a member that is not the receiver's
// predecessor this round and followed by its Attestation, costs the sender
// one BadMessage verdict. The receiver stores nothing and acknowledges
// nothing, so it owes no forward and draws no verdict next round.
func TestServeFromNonPredecessorRejected(t *testing.T) {
	h := newHarness(t, 8, 2)
	h.engine.Run(3)
	const b = model.NodeID(3)
	node := h.nodes[b]
	round := node.Round()
	a := h.nonPredecessor(b, round)
	fresh, err := h.gen.Emit(round, 1)
	if err != nil {
		t.Fatal(err)
	}
	u := fresh[0]
	srv := &wire.Serve{Round: round, From: a, To: b, KPrev: hhash.OneKey().Bytes(),
		Full: []wire.ServedUpdate{{Update: u, Count: 1}}}
	cipher, err := h.suite.Encrypt(b, sealMsg(t, h.identities[a], srv))
	if err != nil {
		t.Fatal(err)
	}
	one, err := h.params.EncodeValue(nil, big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	att := sealMsg(t, h.identities[a], &wire.Attestation{Round: round, From: a, To: b,
		HExpiring: one, HForwardable: one})
	acked := false
	h.deliver = func(n *core.Node, m transport.Message) {
		acked = acked || (m.Kind == wire.KindAck && m.From == b && m.To == a)
		n.HandleMessage(m)
	}
	before := len(h.verdicts)
	node.HandleMessage(transport.Message{From: a, To: b, Kind: wire.KindServe, Payload: cipher})
	node.HandleMessage(transport.Message{From: a, To: b, Kind: wire.KindAttestation, Payload: att})
	got := h.verdicts[before:]
	if len(got) != 1 || got[0].Kind != core.VerdictBadMessage || got[0].Accused != a ||
		got[0].Detail != "Serve from a non-predecessor" {
		t.Fatalf("verdicts %v, want one BadMessage %q against %v", got, "Serve from a non-predecessor", a)
	}
	if node.Store().Has(u.ID) {
		t.Fatal("the served update was stored")
	}
	h.engine.Run(1)
	if acked {
		t.Fatal("the receiver acknowledged the Serve")
	}
	for _, v := range h.verdicts[before:] {
		if v.Accused == b {
			t.Fatalf("the receiver was convicted: %v", v)
		}
	}
}

// TestWidePrimeRejected: a KeyResponse correctly signed by a successor but
// carrying a prime wider than the session's (here 128 KB, where an honest
// one is 128 bits) costs the responder one BadMessage verdict from the
// requester, raised before any lift: the requester sends that successor
// no Serve in the round.
func TestWidePrimeRejected(t *testing.T) {
	const src, at = model.NodeID(1), model.Round(3)
	h := newHarness(t, 16, 2)
	wide := make([]byte, 128<<10)
	wide[0], wide[len(wide)-1] = 0xC0, 1
	var responder model.NodeID
	served := false
	h.deliver = func(n *core.Node, m transport.Message) {
		if n.Round() == at && m.Kind == wire.KindKeyResponse && m.To == src && responder == model.NoNode {
			responder = m.From
			plain, err := h.identities[src].Decrypt(m.Payload)
			if err != nil {
				t.Fatal(err)
			}
			var resp wire.KeyResponse
			if err := resp.Decode(plain); err != nil {
				t.Fatal(err)
			}
			resp.Prime, resp.Sig = wide, nil
			if m.Payload, err = h.suite.Encrypt(src, sealMsg(t, h.identities[responder], &resp)); err != nil {
				t.Fatal(err)
			}
		}
		if n.Round() == at && m.Kind == wire.KindServe && m.From == src && m.To == responder {
			served = true
		}
		n.HandleMessage(m)
	}
	h.engine.Run(int(at) + 1)

	if responder == model.NoNode {
		t.Fatal("no KeyResponse reached the source in the tampered round")
	}
	if !slices.ContainsFunc(h.verdicts, func(v judicial.Verdict) bool {
		return v.Kind == core.VerdictBadMessage && v.Accused == responder && v.Reporter == src &&
			v.Round == at && v.Detail == "invalid prime in KeyResponse"
	}) {
		t.Fatalf("no BadMessage against %v for its wide prime; verdicts %v", responder, h.verdicts)
	}
	if served {
		t.Fatalf("the source served %v under its wide prime", responder)
	}
}

// TestWideKPrevRejected: a Serve correctly signed by a predecessor but
// carrying a K(R-1) wider than an honest one can be (here 128 KB, where an
// honest one is a product of at most a few 128-bit primes) costs the
// sender one BadMessage verdict from the receiver, raised before anything
// is stored or lifted: the receiver sends it no Ack. (The sender's
// monitors may still probe the receiver with the Serve the sender kept,
// which was never tampered with; that one is acknowledged.)
func TestWideKPrevRejected(t *testing.T) {
	const at = model.Round(3)
	h := newHarness(t, 16, 2)
	wide := make([]byte, 128<<10)
	wide[0], wide[len(wide)-1] = 0xC0, 1
	var sender, receiver model.NodeID
	probed, acked := false, false
	h.deliver = func(n *core.Node, m transport.Message) {
		if n.Round() == at && m.Kind == wire.KindServe && sender == model.NoNode {
			sender, receiver = m.From, m.To
			plain, err := h.identities[receiver].Decrypt(m.Payload)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := wire.UnmarshalServe(plain)
			if err != nil {
				t.Fatal(err)
			}
			srv.KPrev, srv.Sig = wide, nil
			if m.Payload, err = h.suite.Encrypt(receiver, sealMsg(t, h.identities[sender], srv)); err != nil {
				t.Fatal(err)
			}
		}
		if n.Round() == at && m.Kind == wire.KindProbe && m.To == receiver {
			probed = true
		}
		if n.Round() == at && m.Kind == wire.KindAck && m.From == receiver && m.To == sender && !probed {
			acked = true
		}
		n.HandleMessage(m)
	}
	h.engine.Run(int(at) + 1)

	if sender == model.NoNode {
		t.Fatal("no Serve was delivered in the tampered round")
	}
	if !slices.ContainsFunc(h.verdicts, func(v judicial.Verdict) bool {
		return v.Kind == core.VerdictBadMessage && v.Accused == sender && v.Reporter == receiver &&
			v.Round == at && v.Detail == "invalid K(R-1) in Serve"
	}) {
		t.Fatalf("no BadMessage against %v for its wide K(R-1); verdicts %v", sender, h.verdicts)
	}
	if acked {
		t.Fatalf("%v acknowledged %v under its wide K(R-1)", receiver, sender)
	}
}

// TestKeyRequestFromNonPredecessorRejected: a KeyRequest correctly signed
// by a member that is not one of the receiver's predecessors this round
// costs the requester one BadMessage verdict: the receiver issues it no
// prime and sends it no KeyResponse.
func TestKeyRequestFromNonPredecessorRejected(t *testing.T) {
	const at = model.Round(3)
	h := newHarness(t, 16, 2)
	var outsider, target model.NodeID
	responded := false
	h.deliver = func(n *core.Node, m transport.Message) {
		if n.Round() == at && m.Kind == wire.KindKeyRequest && target == model.NoNode {
			target = m.To
			preds := h.dir.Predecessors(target, at)
			for _, id := range h.dir.MembersAt(at) {
				if id != target && !slices.Contains(preds, id) {
					outsider = id
					break
				}
			}
			req := &wire.KeyRequest{Round: at, From: outsider, To: target}
			n.HandleMessage(transport.Message{From: outsider, To: target, Kind: wire.KindKeyRequest,
				Payload: sealMsg(t, h.identities[outsider], req)})
		}
		if n.Round() == at && m.Kind == wire.KindKeyResponse && m.From == target && m.To == outsider {
			responded = true
			return
		}
		n.HandleMessage(m)
	}
	h.engine.Run(int(at) + 1)

	if outsider == model.NoNode {
		t.Fatal("no KeyRequest was delivered in the tampered round, or every member is a predecessor")
	}
	if !slices.ContainsFunc(h.verdicts, func(v judicial.Verdict) bool {
		return v.Kind == core.VerdictBadMessage && v.Accused == outsider && v.Reporter == target &&
			v.Round == at && v.Detail == "KeyRequest from a non-predecessor"
	}) {
		t.Fatalf("no BadMessage against %v for its KeyRequest; verdicts %v", outsider, h.verdicts)
	}
	if responded {
		t.Fatalf("%v answered the KeyRequest of non-predecessor %v", target, outsider)
	}
}
