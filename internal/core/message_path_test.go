package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/hhash"
	"repro/internal/model"
	"repro/internal/pki"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// sealMsg is the sender's path: one encoding, signed in place.
func sealMsg(t testing.TB, id pki.Identity, m wire.BodyMessage) []byte {
	t.Helper()
	w := wire.GetWriter()
	defer w.Release()
	b, err := wire.Seal(w, m, id)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(b)
}

// The tamper sweep's exchange: tamperSigner signs every message and sends
// it to tamperReceiver in round tamperRound.
const (
	tamperRound    = 3
	tamperSigner   = model.NodeID(2)
	tamperReceiver = model.NodeID(3)
)

// tamperCase is one message of the tamper sweep, unsigned, under the
// envelope kind it is delivered with; encrypted ones travel sealed to the
// receiver.
type tamperCase struct {
	kind      uint8
	m         wire.BodyMessage
	encrypted bool
}

// tamperCases returns one well-formed message of every wire kind, from
// tamperSigner to tamperReceiver, for a harness that has run tamperRound
// rounds.
func tamperCases(t testing.TB, h *harness) []tamperCase {
	const (
		round, a, b = tamperRound, tamperSigner, tamperReceiver
		x, y        = model.NodeID(4), model.NodeID(5) // other members
	)
	ida := h.identities[a]
	us, err := h.gen.Emit(round, 1)
	if err != nil {
		t.Fatal(err)
	}
	hv := bytes.Repeat([]byte{7}, 16) // a hash-value-sized field
	att := sealMsg(t, h.identities[x], &wire.Attestation{Round: round, From: x, To: a, HExpiring: hv, HForwardable: hv})
	ack := sealMsg(t, ida, &wire.Ack{Round: round, From: a, To: x, H: hv})
	srv := &wire.Serve{Round: round, From: a, To: b, KPrev: hhash.OneKey().Bytes(),
		Full: []wire.ServedUpdate{{Update: us[0], Count: 1}}}
	srvCipher, err := h.suite.Encrypt(b, sealMsg(t, ida, srv))
	if err != nil {
		t.Fatal(err)
	}
	return []tamperCase{
		{wire.KindKeyRequest, &wire.KeyRequest{Round: round, From: a, To: b}, false},
		{wire.KindKeyResponse, &wire.KeyResponse{Round: round, From: a, To: b, Prime: []byte{0x0B}, BufferMap: []uint64{0x0707070707070706, 0x0707070707070707}}, true},
		{wire.KindServe, srv, true},
		{wire.KindAttestation, &wire.Attestation{Round: round, From: a, To: b, HExpiring: hv, HForwardable: hv}, false},
		{wire.KindAck, &wire.Ack{Round: round, From: a, To: b, H: hv}, false},
		{wire.KindAckCopy, &wire.Ack{Round: round, From: a, To: x, H: hv}, false},
		{wire.KindAttForward, &wire.AttForward{Round: round, From: a, AttBytes: att, Remainder: []byte{0x0D}}, true},
		{wire.KindHashShare, &wire.HashShare{Round: round, From: a, Monitored: y, Pred: x, HExpLifted: hv, HFwdLifted: hv, AckBytes: ack}, false},
		{wire.KindAckForward, wire.NewAckForward(round, a, ack), false},
		{wire.KindNodeDigest, &wire.NodeDigest{Round: round, From: a, HFwd: hv}, false},
		{wire.KindAccusation, &wire.Accusation{Round: round, From: a, Against: y, ServeCipher: srvCipher, AttBytes: att}, false},
		{wire.KindProbe, &wire.Probe{Round: round, From: a, Origin: x, ServeCipher: srvCipher, AttBytes: att}, false},
		{wire.KindConfirm, wire.NewConfirm(round, a, ack), false},
		{wire.KindNack, &wire.Nack{Round: round, From: a, Accuser: x, Against: y}, false},
		{wire.KindAckRequest, &wire.AckRequest{Round: round, From: a, Succ: y}, false},
		{wire.KindAckExhibit, &wire.AckExhibit{Round: round, From: a, Succ: y, AckBytes: ack}, false},
	}
}

// retiredFrame is a frame of the retired kind 17 signed by id: the layout
// its message had (round, sender, monitored node, obligation, suspect flag),
// which no node decodes any more.
func retiredFrame(t testing.TB, id pki.Identity, r model.Round, from, y model.NodeID) []byte {
	t.Helper()
	w := wire.GetWriter()
	defer w.Release()
	w.U8(wire.KindObligationHandover)
	w.U64(uint64(r))
	w.U32(uint32(from))
	w.U32(uint32(y))
	w.Bytes(bytes.Repeat([]byte{7}, 16))
	w.Bool(false)
	if err := w.Sign(id); err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(w.Finish())
}

// TestTamperSweepVerdicts delivers one correctly signed message of every
// wire kind to a node, then the same message with each single byte of body
// or signature flipped (for the encrypted kinds: each byte of the signed
// plaintext, re-encrypted, and each byte of the sealed ciphertext). No
// corrupted message may make the node send anything, and the verdicts it
// raises — tallied per kind — are those recorded from the commit that
// verified signatures over a re-encoding of the decoded message.
func TestTamperSweepVerdicts(t *testing.T) {
	h := newHarness(t, 8, 2)
	h.engine.Run(tamperRound)
	const a, b = tamperSigner, tamperReceiver
	ida := h.identities[a]
	cases := tamperCases(t, h)
	var err error

	node := h.nodes[b]
	// deliver hands one payload to b and returns the verdicts it raised.
	deliver := func(kind uint8, payload []byte, mayReply bool) []string {
		before, pending := len(h.verdicts), h.net.PendingCount()
		node.HandleMessage(transport.Message{From: a, To: b, Kind: kind, Payload: payload})
		if !mayReply && h.net.PendingCount() != pending {
			t.Fatalf("%s: a corrupted message made the node send", wire.KindName(kind))
		}
		var out []string
		for _, v := range h.verdicts[before:] {
			out = append(out, fmt.Sprintf("%v/%s/%v", v.Kind, v.Detail, v.Accused))
		}
		if out == nil {
			out = []string{"dropped silently"}
		}
		return out
	}

	got := map[string]map[string]int{}
	for _, c := range cases {
		name := wire.KindName(c.kind)
		tally := map[string]int{}
		got[name] = tally
		plain := sealMsg(t, ida, c.m)
		sigStart := len(plain) - h.suite.SignatureSize()
		for i := range plain {
			mut := bytes.Clone(plain)
			mut[i] ^= 0x01
			if c.encrypted {
				if mut, err = h.suite.Encrypt(b, mut); err != nil {
					t.Fatal(err)
				}
			}
			verdicts := deliver(c.kind, mut, false)
			for _, v := range verdicts {
				tally[v]++
			}
			// A flipped signature byte never changes what decodes: it is
			// always exactly one bad-signature verdict against the signer.
			if i >= sigStart && (len(verdicts) != 1 || verdicts[0][:len("BadMessage/bad signature on ")] != "BadMessage/bad signature on ") {
				t.Fatalf("%s: flipping signature byte %d gave %v", name, i-sigStart, verdicts)
			}
		}
		if c.encrypted {
			sealed, err := h.suite.Encrypt(b, plain)
			if err != nil {
				t.Fatal(err)
			}
			// FastSuite's leading key-wrap block is size padding only.
			for i := h.suite.CiphertextOverhead() - 28; i < len(sealed); i++ {
				mut := bytes.Clone(sealed)
				mut[i] ^= 0x01
				for _, v := range deliver(c.kind, mut, false) {
					tally["ciphertext: "+v]++
				}
			}
			if plain, err = h.suite.Encrypt(b, plain); err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range deliver(c.kind, plain, true) {
			if v != "dropped silently" {
				t.Fatalf("%s: the untouched message raised %s", name, v)
			}
		}
	}

	if !reflect.DeepEqual(got, tamperVerdictsAtParent) {
		var names []string
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if !reflect.DeepEqual(got[name], tamperVerdictsAtParent[name]) {
				t.Errorf("%s:\n got %v\nwant %v", name, got[name], tamperVerdictsAtParent[name])
			}
		}
	}
}

// FuzzHandleMessage feeds hostile (kind, payload) pairs to one node of a
// session that has run tamperRound rounds, starting from the tamper
// sweep's correctly signed message of every kind. HandleMessage never
// panics; a payload its kind's admission rule cannot decode (a sealed one
// after opening it), or of a kind the node does not admit, makes the node
// send nothing; and whatever the input, the node's monitor keeps state
// only for rounds of its window — MonitorKeep behind the round it has
// begun (one more until a later round takes its ring slot) to one ahead.
// One session serves every input, so state a valid input leaves behind is
// the state the next one meets.
func FuzzHandleMessage(f *testing.F) {
	h := newHarness(f, 8, 2)
	h.engine.Run(tamperRound)
	for _, c := range tamperCases(f, h) {
		payload := sealMsg(f, h.identities[tamperSigner], c.m)
		if c.encrypted {
			var err error
			if payload, err = h.suite.Encrypt(tamperReceiver, payload); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(c.kind, payload)
	}
	f.Add(wire.KindObligationHandover, retiredFrame(f, h.identities[tamperSigner], tamperRound, tamperSigner, 5))
	node := h.nodes[tamperReceiver]
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		malformed := !node.Decodes(kind, payload)
		pending := h.net.PendingCount()
		node.HandleMessage(transport.Message{From: tamperSigner, To: tamperReceiver, Kind: kind, Payload: payload})
		if malformed && h.net.PendingCount() != pending {
			t.Fatalf("%s: a payload its decoder rejects made the node send", wire.KindName(kind))
		}
		r := node.Round()
		for _, held := range node.MonitorRounds() {
			if held+core.MonitorKeep+1 < r || held > r+1 {
				t.Fatalf("%s: the monitor holds state for round %d at round %d", wire.KindName(kind), held, r)
			}
		}
	})
}

// TestEvidenceSurvivesPayloadOverwrite: a handler is lent its payload and,
// for the encrypted kinds, the pooled buffer it opened the payload into;
// decoded messages alias one or the other, so every blob a node keeps —
// stored updates, attestations and acknowledgements held as evidence,
// monitors' ack copies, exhibits, deferred messages — must be copied where
// it is kept. Delivered payloads are shared with the other recipients of
// a fan-out, so the perturbed session hands each handler a private copy
// and overwrites that the moment the handler returns, and has wire poison
// every pooled buffer on release — which also catches pooled bytes handed
// to Endpoint.Send — and each node's evidence buffer when BeginRound
// rewinds it, which catches evidence read past its round. It must end
// exactly like its undisturbed twin — through the accusation and probe
// flow a NoAck node forces and the AckRequest/AckExhibit investigation a
// node withholding its monitor reports forces — with and without the
// interner, on the serial engine and on four workers.
func TestEvidenceSurvivesPayloadOverwrite(t *testing.T) {
	const lazy, sneak = 6, 9
	run := func(perturb bool, workers int, intern *update.Interner) ([]string, []uint64) {
		opts := []harnessOpt{withBehavior(lazy, core.Behavior{NoAck: true}),
			withBehavior(sneak, core.Behavior{SkipMonitorReport: true}),
			withIntern(intern)}
		if workers > 0 {
			opts = append(opts, withWorkers(workers))
		}
		h := newHarness(t, 16, 2, opts...)
		if perturb {
			defer wire.PoisonReleased()()
			h.deliver = func(n *core.Node, m transport.Message) {
				m.Payload = bytes.Clone(m.Payload)
				n.HandleMessage(m)
				for i := range m.Payload {
					m.Payload[i] = 0xAA
				}
			}
		}
		h.engine.Run(14)
		var verdicts []string
		for _, v := range h.verdicts {
			verdicts = append(verdicts, v.String())
		}
		sort.Strings(verdicts)
		var delivered []uint64
		for id := model.NodeID(1); id <= 16; id++ {
			delivered = append(delivered, h.deliveredAt(id))
		}
		return verdicts, delivered
	}
	for name, intern := range map[string]func() *update.Interner{
		"private":  func() *update.Interner { return nil },
		"interned": update.NewInterner,
	} {
		t.Run(name, func(t *testing.T) {
			wantV, wantD := run(false, 0, intern())
			if len(wantD) == 0 || wantD[2] == 0 {
				t.Fatal("the reference run delivered nothing")
			}
			for _, workers := range []int{0, 4} {
				gotV, gotD := run(true, workers, intern())
				if !reflect.DeepEqual(gotV, wantV) {
					t.Errorf("workers=%d: verdicts differ once payloads are overwritten:\n got %v\nwant %v", workers, gotV, wantV)
				}
				if !reflect.DeepEqual(gotD, wantD) {
					t.Errorf("workers=%d: deliveries differ once payloads are overwritten:\n got %v\nwant %v", workers, gotD, wantD)
				}
			}
		})
	}
}

// TestRoundResetOwnership: the round lists a node resets in place must not
// keep an earlier round's content alive past their length — not in the
// tail of a forward set that shrank, not in the exchange records of a
// round with fewer predecessors, not in a monitor's records of a retired
// round — and the messages a node decodes arrivals into and builds its
// sends in must hold no view once their wave is over, serially and on
// four workers.
func TestRoundResetOwnership(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			h := newHarness(t, 8, 4, withWorkers(workers))
			h.engine.Run(4)
			h.perRound = 0 // the forward sets drain: every reused array gets a stale tail
			for r := 0; r < 6; r++ {
				h.engine.Run(1)
				for id, n := range h.nodes {
					if n.StaleSlotsHoldContent() {
						t.Fatalf("node %v: a reset slot, a retired record or an emptied message still references content", id)
					}
				}
			}
		})
	}
}
