package core_test

import (
	"bytes"
	"math/big"
	"testing"

	"repro/internal/core"
	"repro/internal/hhash"
	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/wire"
)

// A signature is checked when the bytes it covers arrive, and they may
// arrive inside another message: an Attestation in an AttForward, an Ack
// in an AckForward or a Confirm, a Serve in a Probe, an update in a Serve.
// A bad one is the fault of the carrier, the node that signed the
// enclosing message over those bytes, never of the signer they name:
// anyone can put a correct node's name on bytes it never signed. A Probe's
// monitor is the exception: it relays a Serve it cannot read.

// badSig returns the signed message b with one byte of its signature
// flipped, which leaves everything it decodes to unchanged.
func badSig(b []byte) []byte {
	b = bytes.Clone(b)
	b[len(b)-1] ^= 0x01
	return b
}

// requireOneBadMessage requires that exactly one verdict was raised: a
// BadMessage against carrier with the given detail.
func requireOneBadMessage(t *testing.T, h *harness, carrier model.NodeID, detail string) {
	t.Helper()
	if len(h.verdicts) != 1 {
		t.Fatalf("verdicts %v, want one BadMessage %q against %v", h.verdicts, detail, carrier)
	}
	if v := h.verdicts[0]; v.Kind != core.VerdictBadMessage || v.Accused != carrier || v.Detail != detail {
		t.Fatalf("verdict %v, want BadMessage %q against the carrier %v", v, detail, carrier)
	}
}

// TestCarrierAnswersForForwardedAttestation: the monitored node forwards
// its predecessor's attestation with a signature byte flipped, inside its
// own validly signed AttForward with an honest-width remainder. The
// designated monitor convicts the forwarder, not the predecessor.
func TestCarrierAnswersForForwardedAttestation(t *testing.T) {
	c := newAttForwardCase(t, true)
	hv := bytes.Repeat([]byte{7}, 16)
	att := badSig(sealMsg(t, c.h.identities[c.pred], &wire.Attestation{Round: c.r, From: c.pred, To: c.y, HExpiring: hv, HForwardable: hv}))
	others := len(c.h.dir.Predecessors(c.y, c.r)) - 1
	remainder := hhash.OneKey()
	for i := range others {
		remainder = remainder.Mul(testPrime(t, int64(i), c.h.nodes[c.b].PrimeBits()))
	}
	fwd := sealMsg(t, c.h.identities[c.y], &wire.AttForward{Round: c.r, From: c.y, AttBytes: att, Remainder: remainder.Bytes()})
	cipher, err := c.h.suite.Encrypt(c.b, fwd)
	if err != nil {
		t.Fatal(err)
	}
	c.h.nodes[c.b].HandleMessage(transport.Message{From: c.y, To: c.b, Kind: wire.KindAttForward, Payload: cipher})
	requireOneBadMessage(t, c.h, c.y, "bad signature on forwarded Attestation")
	if added := c.h.nodes[c.b].Stats().HashOps - c.ops0; added != 0 {
		t.Errorf("the monitor lifted the refused attestation: %d hash-ops", added)
	}
}

// relayCase is an exchange a→s of round r, a monitor of s that relays s's
// acknowledgement, and a monitor of a, other than the relayer, that
// receives the relay.
type relayCase struct {
	h                   *harness
	r                   model.Round
	a, s, relayer, recv model.NodeID
}

func newRelayCase(t *testing.T) relayCase {
	t.Helper()
	h := newHarness(t, 16, 2)
	h.engine.Run(int(admissionRound))
	r := admissionRound
	for _, a := range h.dir.MembersAt(r) {
		for _, s := range h.dir.Successors(a, r) {
			for _, relayer := range h.dir.Monitors(s, r) {
				for _, recv := range h.dir.Monitors(a, r) {
					if recv != relayer && recv != s && relayer != a {
						return relayCase{h: h, r: r, a: a, s: s, relayer: relayer, recv: recv}
					}
				}
			}
		}
	}
	t.Fatal("no such exchange")
	return relayCase{}
}

// relayBadAck delivers to recv an AckRelay of the given kind, validly
// signed by the relayer, whose Ack from s to a has a flipped signature.
func (c relayCase) relayBadAck(t *testing.T, kind uint8) {
	t.Helper()
	hv, err := c.h.params.EncodeValue(nil, big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	ack := badSig(sealMsg(t, c.h.identities[c.s], &wire.Ack{Round: c.r, From: c.s, To: c.a, H: hv}))
	relay := wire.NewAckForward(c.r, c.relayer, ack)
	if kind == wire.KindConfirm {
		relay = wire.NewConfirm(c.r, c.relayer, ack)
	}
	payload := sealMsg(t, c.h.identities[c.relayer], relay)
	c.h.nodes[c.recv].HandleMessage(transport.Message{From: c.relayer, To: c.recv, Kind: kind, Payload: payload})
}

// TestCarrierAnswersForAckForward: a monitor relays (message 9) an Ack
// whose signature is bad; the receiving monitor convicts the relayer, not
// the successor the Ack names.
func TestCarrierAnswersForAckForward(t *testing.T) {
	c := newRelayCase(t)
	c.relayBadAck(t, wire.KindAckForward)
	requireOneBadMessage(t, c.h, c.relayer, "bad signature on relayed Ack")
}

// TestCarrierAnswersForConfirm: the same, for an Ack relayed as a Confirm
// of the accusation flow.
func TestCarrierAnswersForConfirm(t *testing.T) {
	c := newRelayCase(t)
	c.relayBadAck(t, wire.KindConfirm)
	requireOneBadMessage(t, c.h, c.relayer, "bad signature on relayed Ack")
}

// serveCase is node b that has just begun round r, before any of its
// exchanges opened, and a, a predecessor of b at r.
type serveCase struct {
	h    *harness
	r    model.Round
	a, b model.NodeID
}

func newServeCase(t *testing.T) serveCase {
	t.Helper()
	h := newHarness(t, 16, 2)
	r := admissionRound
	h.engine.Run(int(r) - 1)
	for _, b := range h.dir.MembersAt(r) {
		if preds := h.dir.Predecessors(b, r); b != h.source && len(preds) > 0 && preds[0] != h.source {
			h.nodes[b].BeginRound(r)
			return serveCase{h: h, r: r, a: preds[0], b: b}
		}
	}
	t.Fatal("no such node")
	return serveCase{}
}

// serve returns a's Serve to b of one fresh update, sealed by a and
// encrypted to b; badSource flips a byte of the update's source signature.
func (c serveCase) serve(t *testing.T, badSource bool) []byte {
	t.Helper()
	us, err := c.h.gen.Emit(c.r, 1)
	if err != nil {
		t.Fatal(err)
	}
	u := us[0]
	if badSource {
		u.SrcSig = bytes.Clone(u.SrcSig)
		u.SrcSig[0] ^= 0x01
	}
	return sealMsg(t, c.h.identities[c.a], &wire.Serve{Round: c.r, From: c.a, To: c.b, KPrev: hhash.OneKey().Bytes(),
		Full: []wire.ServedUpdate{{Update: u, Count: 1}}})
}

// TestProbedServeBadSignatureConvictsNobody: a Probe carries a Serve
// whose signature is bad. Its monitor relays the Serve sealed to b, as the
// accuser put it in its Accusation, so b cannot tell which of the two
// tampered with it: it drops the Serve and convicts neither, whether the
// monitor forged it (an honest accuser's name on it) or the accuser did
// (an honest monitor relaying it).
func TestProbedServeBadSignatureConvictsNobody(t *testing.T) {
	for _, forger := range []string{"monitor", "accuser"} {
		t.Run(forger, func(t *testing.T) {
			c := newServeCase(t)
			var m model.NodeID
			for _, m = range c.h.dir.Monitors(c.b, c.r) {
				if m != c.a {
					break
				}
			}
			cipher, err := c.h.suite.Encrypt(c.b, badSig(c.serve(t, false)))
			if err != nil {
				t.Fatal(err)
			}
			if forger == "monitor" {
				probe := sealMsg(t, c.h.identities[m], &wire.Probe{Round: c.r, From: m, Origin: c.a, ServeCipher: cipher})
				c.h.nodes[c.b].HandleMessage(transport.Message{From: m, To: c.b, Kind: wire.KindProbe, Payload: probe})
			} else {
				acc := sealMsg(t, c.h.identities[c.a], &wire.Accusation{Round: c.r, From: c.a, Against: c.b, ServeCipher: cipher})
				pending := c.h.net.PendingCount()
				c.h.nodes[m].HandleMessage(transport.Message{From: c.a, To: m, Kind: wire.KindAccusation, Payload: acc})
				if c.h.net.PendingCount() != pending+1 {
					t.Fatalf("monitor %v did not probe %v", m, c.b)
				}
				c.h.net.DeliverAll()
			}
			if len(c.h.verdicts) != 0 {
				t.Fatalf("verdicts %v, want none: neither %v nor %v provably forged the Serve", c.h.verdicts, m, c.a)
			}
		})
	}
}

// TestCarrierAnswersForServedUpdate: a predecessor serves an update whose
// source signature is bad; the receiver convicts the predecessor, whose
// Serve carried it, not the stream source.
func TestCarrierAnswersForServedUpdate(t *testing.T) {
	c := newServeCase(t)
	cipher, err := c.h.suite.Encrypt(c.b, c.serve(t, true))
	if err != nil {
		t.Fatal(err)
	}
	before := c.h.nodes[c.b].Stats().UpdatesReceived
	c.h.nodes[c.b].HandleMessage(transport.Message{From: c.a, To: c.b, Kind: wire.KindServe, Payload: cipher})
	requireOneBadMessage(t, c.h, c.a, "bad signature on update source signature")
	if got := c.h.nodes[c.b].Stats().UpdatesReceived - before; got != 0 {
		t.Fatalf("the receiver stored %d updates of the refused Serve", got)
	}
}
