package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hhash"
	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/wire"
)

// admissionRound is the round the admission golden's receiver has begun.
const admissionRound = model.Round(8)

// admissionOffsets are the message rounds of the golden, relative to the
// receiver's.
var admissionOffsets = []int64{-5, -1, 0, 1, 5, 1_000_000}

// admissionKinds are the wire kinds of the golden, in wire order.
var admissionKinds = []uint8{
	wire.KindKeyRequest, wire.KindKeyResponse, wire.KindServe, wire.KindAttestation,
	wire.KindAck, wire.KindAckCopy, wire.KindAttForward, wire.KindHashShare,
	wire.KindAckForward, wire.KindNodeDigest, wire.KindAccusation, wire.KindProbe,
	wire.KindConfirm, wire.KindNack, wire.KindAckRequest, wire.KindAckExhibit,
	wire.KindObligationHandover,
}

// monitorKind reports whether kind is one a node receives as a monitor.
func monitorKind(kind uint8) bool {
	switch kind {
	case wire.KindKeyRequest, wire.KindKeyResponse, wire.KindServe, wire.KindAttestation,
		wire.KindAck, wire.KindProbe, wire.KindAckRequest:
		return false
	}
	return true
}

// admissionCast is who sends and what the messages are about: b receives;
// each role names one sender, chosen to hold no other role where the
// directory allows; y and y2 are nodes b monitors, and x is the stranger.
type admissionCast struct {
	b, y, y2, x model.NodeID
	roles       []string
	senders     []model.NodeID
}

func newAdmissionCast(t testing.TB, h *harness, b model.NodeID, r model.Round) admissionCast {
	t.Helper()
	d := h.dir
	members := d.MembersAt(r)
	var monitored []model.NodeID
	for _, z := range members {
		if z != b && d.IsMonitorOf(b, z, r) {
			monitored = append(monitored, z)
		}
	}
	if len(monitored) == 0 {
		t.Fatalf("%v monitors nobody", b)
	}
	c := admissionCast{b: b, y: monitored[0], y2: monitored[len(monitored)-1]}
	sets := [][]model.NodeID{
		d.Predecessors(b, r),
		d.Successors(b, r),
		d.Monitors(b, r),
		monitored,
		slices.DeleteFunc(d.Monitors(c.y, r), func(z model.NodeID) bool { return z == b }),
	}
	inOther := func(z model.NodeID, own int) bool {
		for i, s := range sets {
			if i != own && slices.Contains(s, z) {
				return true
			}
		}
		return false
	}
	c.roles = []string{"predecessor", "successor", "monitor-of-receiver", "monitored-by-receiver", "monitor-of-other", "stranger"}
	for i, s := range sets {
		if len(s) == 0 {
			t.Fatalf("no candidate for role %s", c.roles[i])
		}
		pick := s[0]
		for _, z := range s {
			if !inOther(z, i) {
				pick = z
				break
			}
		}
		if i == 3 {
			pick = c.y
		}
		c.senders = append(c.senders, pick)
	}
	for _, z := range members {
		if z != b && !inOther(z, -1) {
			c.x = z
			break
		}
	}
	if c.x == model.NoNode {
		t.Fatal("no stranger among the members")
	}
	c.senders = append(c.senders, c.x)
	return c
}

// admissionMessage is a well-formed message of kind from s to c.b in round
// r, validly signed by everyone it carries a signature of.
func admissionMessage(t testing.TB, h *harness, c admissionCast, kind uint8, s model.NodeID, r model.Round, primeBits int) transport.Message {
	t.Helper()
	hv := bytes.Repeat([]byte{7}, 16)
	seal := func(id model.NodeID, m wire.BodyMessage) []byte { return sealMsg(t, h.identities[id], m) }
	var m wire.BodyMessage
	sealed := false
	switch kind {
	case wire.KindKeyRequest:
		m = &wire.KeyRequest{Round: r, From: s, To: c.b}
	case wire.KindKeyResponse:
		prime, err := hhash.GeneratePrimeKey(rand.New(rand.NewSource(int64(r))), primeBits)
		if err != nil {
			t.Fatal(err)
		}
		m, sealed = &wire.KeyResponse{Round: r, From: s, To: c.b, Prime: prime.Bytes()}, true
	case wire.KindServe:
		m, sealed = &wire.Serve{Round: r, From: s, To: c.b, KPrev: hhash.OneKey().Bytes()}, true
	case wire.KindAttestation:
		m = &wire.Attestation{Round: r, From: s, To: c.b, HExpiring: hv, HForwardable: hv}
	case wire.KindAck:
		m = &wire.Ack{Round: r, From: s, To: c.b, H: hv}
	case wire.KindAckCopy:
		m = &wire.Ack{Round: r, From: s, To: c.x, H: hv}
	case wire.KindAttForward:
		att := seal(c.x, &wire.Attestation{Round: r, From: c.x, To: s, HExpiring: hv, HForwardable: hv})
		m, sealed = &wire.AttForward{Round: r, From: s, AttBytes: att, Remainder: hhash.OneKey().Bytes()}, true
	case wire.KindHashShare:
		monitors, pred := h.dir.Monitors(c.y, r), c.x
		if slices.Contains(monitors, s) {
			for _, p := range h.dir.MembersAt(r) {
				if core.DesignatedMonitor(monitors, p, r) == s {
					pred = p
					break
				}
			}
		}
		m = &wire.HashShare{Round: r, From: s, Monitored: c.y, Pred: pred, HExpLifted: hv, HFwdLifted: hv}
	case wire.KindAckForward:
		m = wire.NewAckForward(r, s, seal(c.y, &wire.Ack{Round: r, From: c.y, To: c.y2, H: hv}))
	case wire.KindConfirm:
		m = wire.NewConfirm(r, s, seal(c.y, &wire.Ack{Round: r, From: c.y, To: c.y2, H: hv}))
	case wire.KindNodeDigest:
		m = &wire.NodeDigest{Round: r, From: s, HFwd: hv}
	case wire.KindAccusation:
		m = &wire.Accusation{Round: r, From: s, Against: c.y, ServeCipher: hv}
	case wire.KindProbe:
		m = &wire.Probe{Round: r, From: s, Origin: c.x, ServeCipher: hv}
	case wire.KindNack:
		m = &wire.Nack{Round: r, From: s, Accuser: c.y2, Against: c.y}
	case wire.KindAckRequest:
		m = &wire.AckRequest{Round: r, From: s, Succ: c.x}
	case wire.KindAckExhibit:
		m = &wire.AckExhibit{Round: r, From: s, Succ: c.x}
	case wire.KindObligationHandover:
		m = &wire.ObligationHandover{Round: r, From: s, Monitored: c.y, Obligation: hv}
	default:
		t.Fatalf("no message for kind %d", kind)
	}
	payload := seal(s, m)
	if sealed {
		var err error
		if payload, err = h.suite.Encrypt(c.b, payload); err != nil {
			t.Fatal(err)
		}
	}
	return transport.Message{From: s, To: c.b, Kind: kind, Payload: payload}
}

// admissionOutcomes runs the golden's every cell — kind × sender role ×
// round offset — through the receiver's admission and no further, one line
// per cell: handled, deferred, dropped, or the verdict it raised.
func admissionOutcomes(t testing.TB) []string {
	h := newHarness(t, 16, 2)
	h.engine.Run(int(admissionRound) - 1)
	const b = model.NodeID(3)
	node := h.nodes[b]
	node.BeginRound(admissionRound) // its exchanges now await their primes
	c := newAdmissionCast(t, h, b, admissionRound)
	var out []string
	for _, kind := range admissionKinds {
		for i, role := range c.roles {
			for _, off := range admissionOffsets {
				r := model.Round(int64(admissionRound) + off)
				msg := admissionMessage(t, h, c, kind, c.senders[i], r, node.PrimeBits())
				verdicts, deferred := len(h.verdicts), node.Deferred()
				handled := node.Admit(msg)
				outcome := "dropped"
				switch {
				case len(h.verdicts) > verdicts:
					var vs []string
					for _, v := range h.verdicts[verdicts:] {
						vs = append(vs, fmt.Sprintf("%v: %s", v.Kind, v.Detail))
					}
					outcome = strings.Join(vs, "; ")
				case node.Deferred() > deferred:
					outcome = "deferred"
				case handled:
					outcome = "handled"
				}
				out = append(out, fmt.Sprintf("%s %s %+d: %s", wire.KindName(kind), role, off, outcome))
			}
		}
	}
	return out
}

// TestAdmissionMatchesParent holds every cell of the admission golden to
// the outcome recorded at the parent of the admission table (commit
// 252a276, testdata/admission_parent.txt; not re-recordable from the tree),
// where each handler ran its own checks. The one change allowed is the
// monitor kinds' round window: a monitor message more than MonitorKeep
// rounds behind the receiver, or more than one ahead, is now dropped.
func TestAdmissionMatchesParent(t *testing.T) {
	raw, err := os.ReadFile("testdata/admission_parent.txt")
	if err != nil {
		t.Fatal(err)
	}
	parent := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := admissionOutcomes(t)
	if len(got) != len(parent) {
		t.Fatalf("%d cells, the parent recorded %d", len(got), len(parent))
	}
	changed := 0
	for i, line := range got {
		want := parent[i]
		cell, outcome, _ := strings.Cut(want, ": ")
		var kind string
		var off int64
		fmt.Sscanf(cell, "%s", &kind)
		fmt.Sscanf(cell[strings.LastIndex(cell, " ")+1:], "%d", &off)
		if monitorKind(kindNamed(t, kind)) && (off < -core.MonitorKeep || off > 1) && outcome != "dropped" {
			want, changed = cell+": dropped", changed+1
		}
		if line != want {
			t.Errorf("got  %s\nwant %s", line, want)
		}
	}
	if changed == 0 {
		t.Fatal("no out-of-window monitor cell was admitted at the parent: the golden shows no window")
	}
}

// kindNamed inverts wire.KindName over the golden's kinds.
func kindNamed(t testing.TB, name string) uint8 {
	for _, k := range admissionKinds {
		if wire.KindName(k) == name {
			return k
		}
	}
	t.Fatalf("unknown kind %q", name)
	return 0
}

// TestOutOfWindowMonitorMessagesLeaveNoState sends a monitor, on a session
// sharded across four workers, 10⁴ validly signed messages of one monitor
// kind, each from a sender that holds the kind's role but about a round
// outside [round − MonitorKeep, round + 1]: below it first, then above.
// None may leave monitor state for a round or heap behind, make the node
// send anything or raise a verdict; the session then runs on clean. Each
// kind gets a fresh session, so no kind finds state another left.
func TestOutOfWindowMonitorMessagesLeaveNoState(t *testing.T) {
	const count = 10_000
	const b = model.NodeID(3)
	outOfWindow := func(i int) model.Round {
		if below := int(admissionRound) - core.MonitorKeep - 1; i < below {
			return model.Round(i + 1)
		}
		return admissionRound + 2 + model.Round(i)
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, kind := range admissionKinds {
		if !monitorKind(kind) {
			continue
		}
		t.Run(wire.KindName(kind), func(t *testing.T) {
			h := newHarness(t, 16, 2, withWorkers(4))
			h.engine.Run(int(admissionRound))
			node := h.nodes[b]
			c := newAdmissionCast(t, h, b, admissionRound)
			// The sender holds the kind's role at every round (the
			// harness's monitors are static): y is monitored by b and
			// monY monitors y; an Accusation comes from a predecessor of
			// y in the message's round, where y has one.
			monY := slices.DeleteFunc(h.dir.Monitors(c.y, admissionRound), func(z model.NodeID) bool { return z == b })[0]
			sender := func(r model.Round) model.NodeID {
				switch kind {
				case wire.KindNodeDigest, wire.KindAckCopy, wire.KindAttForward, wire.KindAckExhibit:
					return c.y
				case wire.KindAccusation:
					if preds := h.dir.Predecessors(c.y, r); len(preds) > 0 {
						return preds[0]
					}
					return c.x
				}
				return monY
			}
			rounds, pending := node.MonitorRounds(), h.net.PendingCount()
			heap := liveHeap()
			for i := range count {
				r := outOfWindow(i)
				node.HandleMessage(admissionMessage(t, h, c, kind, sender(r), r, node.PrimeBits()))
			}
			grown := int64(liveHeap()) - int64(heap)
			if after := node.MonitorRounds(); !slices.Equal(after, rounds) {
				t.Errorf("monitor state went from rounds %v to %d rounds (%v … %v)", rounds, len(after), after[0], after[len(after)-1])
			}
			if grown > 1<<20 {
				t.Errorf("live heap grew %d KB", grown>>10)
			}
			if sent := h.net.PendingCount() - pending; sent != 0 {
				t.Errorf("the node sent %d messages", sent)
			}
			if len(h.verdicts) != 0 {
				t.Fatalf("%d verdicts raised, the first %v", len(h.verdicts), h.verdicts[0])
			}
			h.engine.Run(3)
			h.requireNoVerdictsExcept()
		})
	}
}

// TestSealedExchangeBeforeFirstRoundDropped: a node that has begun no round
// has no exchange state, so a KeyResponse or Serve of round 0 — validly
// signed by a member — is dropped, not handled.
func TestSealedExchangeBeforeFirstRoundDropped(t *testing.T) {
	h := newHarness(t, 8, 1)
	const a, b = model.NodeID(2), model.NodeID(3)
	node := h.nodes[b]
	for _, m := range []wire.BodyMessage{
		&wire.KeyResponse{From: a, To: b, Prime: []byte{0x0B}},
		&wire.Serve{From: a, To: b, KPrev: hhash.OneKey().Bytes()},
	} {
		cipher, err := h.suite.Encrypt(b, sealMsg(t, h.identities[a], m))
		if err != nil {
			t.Fatal(err)
		}
		node.HandleMessage(transport.Message{From: a, To: b, Kind: m.Kind(), Payload: cipher})
	}
	if len(h.verdicts) != 0 {
		t.Fatalf("verdicts: %v", h.verdicts)
	}
	h.engine.Run(4)
	h.requireNoVerdictsExcept()
}

// attForwardCase is an exchange of round r reported by the monitored node y
// to b, one of y's monitors: pred served y and signed the attestation.
type attForwardCase struct {
	h          *harness
	r          model.Round
	b, y, pred model.NodeID
	ops0       uint64 // b's hash-ops before the AttForward
	pending0   int    // the undelivered messages before it
}

// newAttForwardCase runs a 16-node session to round 8 and picks, among the
// exchanges of that round, one whose designated monitor is b or is not,
// as designated says.
func newAttForwardCase(t *testing.T, designated bool) *attForwardCase {
	t.Helper()
	h := newHarness(t, 16, 2)
	h.engine.Run(int(admissionRound))
	r := admissionRound
	for _, y := range h.dir.MembersAt(r) {
		monitors := h.dir.Monitors(y, r)
		for _, pred := range h.dir.Predecessors(y, r) {
			d := core.DesignatedMonitor(monitors, pred, r)
			for _, b := range monitors {
				if (b == d) == designated {
					return &attForwardCase{h: h, r: r, b: b, y: y, pred: pred,
						ops0: h.nodes[b].Stats().HashOps, pending0: h.net.PendingCount()}
				}
			}
		}
	}
	t.Fatal("no such exchange")
	return nil
}

// send delivers to b an AttForward from y carrying pred's validly signed
// attestation and the given remainder.
func (c *attForwardCase) send(t *testing.T, remainder []byte) {
	t.Helper()
	hv := bytes.Repeat([]byte{7}, 16)
	att := sealMsg(t, c.h.identities[c.pred], &wire.Attestation{Round: c.r, From: c.pred, To: c.y, HExpiring: hv, HForwardable: hv})
	fwd := sealMsg(t, c.h.identities[c.y], &wire.AttForward{Round: c.r, From: c.y, AttBytes: att, Remainder: remainder})
	cipher, err := c.h.suite.Encrypt(c.b, fwd)
	if err != nil {
		t.Fatal(err)
	}
	c.h.nodes[c.b].HandleMessage(transport.Message{From: c.y, To: c.b, Kind: wire.KindAttForward, Payload: cipher})
}

// refused requires that b lifted nothing, sent nothing and raised exactly
// one BadMessage, against y, with the given detail.
func (c *attForwardCase) refused(t *testing.T, detail string) {
	t.Helper()
	if added := c.h.nodes[c.b].Stats().HashOps - c.ops0; added != 0 {
		t.Errorf("the monitor added %d hash-ops", added)
	}
	if sent := c.h.net.PendingCount() - c.pending0; sent != 0 {
		t.Errorf("the monitor sent %d messages", sent)
	}
	if len(c.h.verdicts) != 1 || c.h.verdicts[0].Accused != c.y || c.h.verdicts[0].Detail != detail {
		t.Fatalf("verdicts %v, want one BadMessage %q against %v", c.h.verdicts, detail, c.y)
	}
}

// TestAttForwardToNonDesignatedMonitorRefused: only the designated monitor
// of an exchange lifts its attestation and shares the lift. A monitored
// node that reports an exchange to another of its monitors draws a
// BadMessage, and that monitor neither lifts nor broadcasts a HashShare
// its co-monitors would answer with BadMessage against it.
func TestAttForwardToNonDesignatedMonitorRefused(t *testing.T) {
	c := newAttForwardCase(t, false)
	c.send(t, hhash.OneKey().Bytes())
	c.refused(t, "attestation forwarded to a non-designated monitor")
	c.h.engine.Run(2)
	c.h.requireNoVerdictsExcept(c.y)
}

// TestAttForwardRemainderWidthBounded: an AttForward's remainder is at most
// as wide as the primes its sender issued its other predecessors. A 16 KB
// one is refused before the monitor lifts anything; one of honest width is
// lifted, twice, by the designated monitor.
func TestAttForwardRemainderWidthBounded(t *testing.T) {
	t.Run("16 KB refused", func(t *testing.T) {
		c := newAttForwardCase(t, true)
		wide := bytes.Repeat([]byte{0xA5}, 16<<10)
		c.send(t, wide)
		c.refused(t, "invalid remainder in AttForward")
	})
	t.Run("honest width lifted", func(t *testing.T) {
		c := newAttForwardCase(t, true)
		others := len(c.h.dir.Predecessors(c.y, c.r)) - 1
		remainder := hhash.OneKey()
		for i := range others {
			remainder = remainder.Mul(testPrime(t, int64(i), c.h.nodes[c.b].PrimeBits()))
		}
		c.send(t, remainder.Bytes())
		if added := c.h.nodes[c.b].Stats().HashOps - c.ops0; added != 2 {
			t.Errorf("the monitor added %d hash-ops, want 2", added)
		}
		if len(c.h.verdicts) != 0 {
			t.Fatalf("verdicts %v", c.h.verdicts)
		}
	})
}

// testPrime is a prime of exactly bits bits, drawn from a seeded stream.
func testPrime(t *testing.T, seed int64, bits int) hhash.Key {
	t.Helper()
	k, err := hhash.GeneratePrimeKey(rand.New(rand.NewSource(seed)), bits)
	if err != nil {
		t.Fatal(err)
	}
	return k
}
