package core_test

import (
	"bytes"
	"fmt"
	"math/big"
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
		slices.DeleteFunc(slices.Clone(d.Monitors(c.y, r)), func(z model.NodeID) bool { return z == b }),
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
		m = &wire.HashShare{Round: r, From: s, Monitored: c.y, Pred: sharePred(h, c, s, r), HExpLifted: hv, HFwdLifted: hv}
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

// sharePred is the predecessor a HashShare from s about c.y in round r
// names: for a monitor of c.y, the first predecessor of c.y whose exchange
// s is designated to, or, where there is none, the first member it would
// be designated to; for anyone else, the stranger.
func sharePred(h *harness, c admissionCast, s model.NodeID, r model.Round) model.NodeID {
	monitors := h.dir.Monitors(c.y, r)
	if !slices.Contains(monitors, s) {
		return c.x
	}
	designated := func(p model.NodeID) bool { return core.DesignatedMonitor(monitors, p, r) == s }
	for _, candidates := range [][]model.NodeID{h.dir.Predecessors(c.y, r), h.dir.MembersAt(r)} {
		if i := slices.IndexFunc(candidates, designated); i >= 0 {
			return candidates[i]
		}
	}
	return c.x
}

// admissionOutcomes runs the golden's every cell — kind × sender role ×
// round offset — through the receiver's admission and no further, one line
// per cell: handled, deferred, dropped, or the verdict it raised. For each
// cell it also reports whether the cell's message is a HashShare naming an
// exchange its round does not hold.
func admissionOutcomes(t testing.TB) (out []string, noExchange []bool) {
	h := newHarness(t, 16, 2)
	h.engine.Run(int(admissionRound) - 1)
	const b = model.NodeID(3)
	node := h.nodes[b]
	node.BeginRound(admissionRound) // its exchanges now await their primes
	c := newAdmissionCast(t, h, b, admissionRound)
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
				_, real := h.dir.ExchangeSlot(sharePred(h, c, c.senders[i], r), c.y, r)
				noExchange = append(noExchange, kind == wire.KindHashShare && !real)
			}
		}
	}
	return out, noExchange
}

// TestAdmissionMatchesParent holds every cell of the admission golden to
// the outcome recorded at the parent of the admission table (commit
// 252a276, testdata/admission_parent.txt; not re-recordable from the tree),
// where each handler ran its own checks. Two changes are allowed. One is
// the monitor kinds' round window: a monitor message more than MonitorKeep
// rounds behind the receiver, or more than one ahead, is now dropped. The
// other is that a HashShare must name an exchange of its round: one whose
// predecessor is no predecessor of the monitored node is now dropped.
func TestAdmissionMatchesParent(t *testing.T) {
	raw, err := os.ReadFile("testdata/admission_parent.txt")
	if err != nil {
		t.Fatal(err)
	}
	parent := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got, noExchange := admissionOutcomes(t)
	if len(got) != len(parent) {
		t.Fatalf("%d cells, the parent recorded %d", len(got), len(parent))
	}
	changed, unreal := 0, 0
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
		if noExchange[i] && outcome != "dropped" {
			want, unreal = cell+": dropped", unreal+1
		}
		if line != want {
			t.Errorf("got  %s\nwant %s", line, want)
		}
	}
	if changed == 0 {
		t.Fatal("no out-of-window monitor cell was admitted at the parent: the golden shows no window")
	}
	if unreal == 0 {
		t.Fatal("no HashShare naming an exchange its round does not hold was admitted at the parent: the golden shows no check")
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
			monY := slices.DeleteFunc(slices.Clone(h.dir.Monitors(c.y, admissionRound)), func(z model.NodeID) bool { return z == b })[0]
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

// TestRetiredKindIsUnknown: a correctly signed frame of the retired kind
// 17, from a monitor of a node the receiver monitors — the sender an
// obligation transfer between monitors once came from — is an unknown kind
// like any other: one BadMessage verdict against its sender, nothing sent
// and no monitor state kept.
func TestRetiredKindIsUnknown(t *testing.T) {
	const b = model.NodeID(3)
	h := newHarness(t, 16, 2)
	h.engine.Run(int(admissionRound))
	node := h.nodes[b]
	c := newAdmissionCast(t, h, b, admissionRound)
	from := slices.DeleteFunc(slices.Clone(h.dir.Monitors(c.y, admissionRound)), func(z model.NodeID) bool { return z == b })[0]
	rounds, pending := node.MonitorRounds(), h.net.PendingCount()
	node.HandleMessage(transport.Message{From: from, To: b, Kind: wire.KindObligationHandover,
		Payload: retiredFrame(t, h.identities[from], admissionRound, from, c.y)})
	if len(h.verdicts) != 1 || h.verdicts[0].Kind != core.VerdictBadMessage ||
		h.verdicts[0].Detail != "unknown kind 17" || h.verdicts[0].Accused != from {
		t.Fatalf("verdicts %v, want one BadMessage \"unknown kind 17\" against %v", h.verdicts, from)
	}
	if sent := h.net.PendingCount() - pending; sent != 0 {
		t.Errorf("the node sent %d messages", sent)
	}
	if after := node.MonitorRounds(); !slices.Equal(after, rounds) {
		t.Errorf("monitor state went from rounds %v to %v", rounds, after)
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

// TestHashShareNamesRealExchange: a HashShare folds a predecessor's
// exchange into the monitored node's obligation, so it must name one its
// round holds. In round 6 of the 16-node session, n4, a monitor of n2 and
// the designated monitor of an exchange n3→n2 that the directory does not
// hold, sends n2's other monitors a validly signed share of it. They drop
// it, and n2, which is correct, draws no verdict: folded in, the share
// would make its honest self-digest disagree with their obligation.
func TestHashShareNamesRealExchange(t *testing.T) {
	const (
		r              = model.Round(6)
		y, pred, liar  = model.NodeID(2), model.NodeID(3), model.NodeID(4)
		roundsAfterLie = 2 // the lie's round, and the next, whose forwarding check it is the baseline of
	)
	h := newHarness(t, 16, 2)
	monitors := h.dir.Monitors(y, r)
	if !slices.Contains(monitors, liar) || core.DesignatedMonitor(monitors, pred, r) != liar {
		t.Fatalf("n%v is not the designated monitor of n%v→n%v among %v", liar, pred, y, monitors)
	}
	if _, ok := h.dir.ExchangeSlot(pred, y, r); ok {
		t.Fatalf("n%v→n%v is an exchange of round %v", pred, y, r)
	}
	h.engine.Run(int(r) - 1)
	hv, err := h.params.EncodeValue(nil, big.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	share := sealMsg(t, h.identities[liar], &wire.HashShare{Round: r, From: liar, Monitored: y, Pred: pred, HExpLifted: hv, HFwdLifted: hv})
	for _, m := range monitors {
		if m != liar {
			h.nodes[m].HandleMessage(transport.Message{From: liar, To: m, Kind: wire.KindHashShare, Payload: share})
		}
	}
	h.engine.Run(roundsAfterLie)
	h.requireNoVerdictsExcept()
}

// TestAckCopyNamesRealExchange: a monitor keeps the Ack copies (message 6)
// a monitored node sends it for as long as an accusation or a forwarded
// attestation of their round may read them, and only one of an exchange
// of that round is ever read. A monitored node that sends validly signed
// copies under every other node's name leaves its monitor one kept copy,
// that of its real predecessor, however many it sends.
func TestAckCopyNamesRealExchange(t *testing.T) {
	const r = admissionRound
	h := newHarness(t, 16, 2)
	h.engine.Run(int(r) - 1)
	var y, m model.NodeID
	for _, y = range h.dir.MembersAt(r) {
		if y != h.source && len(h.dir.Predecessors(y, r)) > 0 {
			m = h.dir.Monitors(y, r)[0]
			break
		}
	}
	hv, err := h.params.EncodeValue(nil, big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range h.dir.MembersAt(r) {
		if _, real := h.dir.ExchangeSlot(x, y, r); real || x == y {
			continue
		}
		for range 3 {
			c := sealMsg(t, h.identities[y], &wire.Ack{Round: r, From: y, To: x, H: hv})
			h.nodes[m].HandleMessage(transport.Message{From: y, To: m, Kind: wire.KindAckCopy, Payload: c})
		}
	}
	if got := h.nodes[m].AckCopies(r); got != 0 {
		t.Fatalf("monitor %v keeps %d copies of exchanges %v does not have", m, got, y)
	}
	pred := h.dir.Predecessors(y, r)[0]
	c := sealMsg(t, h.identities[y], &wire.Ack{Round: r, From: y, To: pred, H: hv})
	for range 3 {
		h.nodes[m].HandleMessage(transport.Message{From: y, To: m, Kind: wire.KindAckCopy, Payload: c})
	}
	if got := h.nodes[m].AckCopies(r); got != 1 {
		t.Fatalf("monitor %v keeps %d copies after %v's real one, want 1", m, got, y)
	}
	// Sending the copy again overwrites it: the buffer holds one.
	if got := h.nodes[m].AckCopyBytes(r); got != len(c) {
		t.Fatalf("monitor %v holds %d bytes of copies after three of one %d-byte copy", m, got, len(c))
	}
	h.requireNoVerdictsExcept()
}
