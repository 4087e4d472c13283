// Package rac implements the RAC baseline (Ben Mokhtar et al., ICDCS 2013)
// the paper compares against (§VII): a freerider-resilient *anonymous*
// communication protocol. RAC gives the strongest privacy of the three
// compared systems but at a cost that rules out live streaming: "the
// maximum payload that RAC is able to provide using 10Gbps network links
// is equal to 63kbps" (§VII-B).
//
// The reproduction implements RAC's structural essence:
//
//   - all nodes sit on a logical ring and every message circulates the
//     full ring (broadcast — receiver anonymity);
//   - every node emits a fixed-size slot every round whether or not it
//     has content (cover traffic — sender anonymity: an observer cannot
//     tell the streaming source from any other member);
//   - relaying is compulsory and verified: each node counts the slots its
//     ring predecessor forwarded and flags it when slots go missing
//     (accountability).
//
// Per-node bandwidth is therefore Θ(N · slotRate · slotSize): linear in
// the membership, which is the scaling the paper's Table II exhibits.
// (The absolute constant in the paper is higher still — RAC uses several
// broadcast rounds per message — so this model under-approximates RAC's
// cost, making the comparison conservative.)
package rac

import (
	"fmt"
	"sort"

	"repro/internal/judicial"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/pki"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

const kindSlot uint8 = 120

// VerdictDroppedSlots: the ring predecessor relayed fewer slots than the
// round's expectation.
const VerdictDroppedSlots judicial.Kind = "DroppedSlots"

// Behavior injects selfish deviations.
type Behavior struct {
	// DropRelays makes the node stop relaying foreign slots (saving the
	// dominant bandwidth cost).
	DropRelays bool
	// NoCover makes the node skip emitting dummy slots (saving upload at
	// the price of the membership's anonymity).
	NoCover bool
}

// BehaviorForProfile maps a protocol-agnostic deviation profile name (the
// scenario vocabulary, see core.BehaviorForProfile) onto RAC's deviation
// knobs; ok is false for unknown profiles. RAC has no monitor rotation, so
// a rotation-dodger degenerates to the plain free-rider.
func BehaviorForProfile(profile string) (b Behavior, ok bool) {
	switch profile {
	case "correct":
		return Behavior{}, true
	case "free-rider", "rotation-dodger":
		return Behavior{DropRelays: true}, true
	case "colluder":
		return Behavior{NoCover: true}, true
	default:
		return Behavior{}, false
	}
}

// Config assembles a RAC node.
type Config struct {
	ID        model.NodeID
	Suite     pki.Suite
	Identity  pki.Identity
	Directory *membership.Directory
	Endpoint  transport.Endpoint
	// Source signs every update (content verification at delivery).
	Source model.NodeID
	// SlotBytes is the fixed slot payload size (cover slots are padded
	// to it). Defaults to model.UpdateBytes.
	SlotBytes int
	Behavior  Behavior
	Verdicts  func(judicial.Verdict)
	OnDeliver func(update.Update)
}

// Node is one RAC ring member.
type Node struct {
	cfg  Config
	id   model.NodeID
	ring []model.NodeID // sorted members
	succ model.NodeID
	pred model.NodeID
	// selfIdx is this node's position on the ring.
	selfIdx int
	// ringEpoch/ringValid gate the per-round ring refresh on membership
	// epoch changes.
	ringEpoch int
	ringValid bool
	round     model.Round

	store    *update.Store
	injected []update.Update

	// seenOrigins tracks whose slots the ring predecessor delivered this
	// round; missing origins drive the accountability verdicts.
	seenOrigins map[model.NodeID]int

	stats Stats
}

// Stats summarises a RAC node's activity.
type Stats struct {
	RoundsRun        uint64
	SlotsEmitted     uint64
	SlotsRelayed     uint64
	UpdatesDelivered uint64
}

// NewNode builds a RAC node.
func NewNode(cfg Config) (*Node, error) {
	if cfg.ID == model.NoNode {
		return nil, fmt.Errorf("rac: node id must not be NoNode")
	}
	if cfg.Suite == nil || cfg.Identity == nil || cfg.Directory == nil || cfg.Endpoint == nil {
		return nil, fmt.Errorf("rac: node %v is missing dependencies", cfg.ID)
	}
	if cfg.SlotBytes == 0 {
		cfg.SlotBytes = model.UpdateBytes
	}
	ring := cfg.Directory.Nodes()
	sort.Slice(ring, func(i, j int) bool { return ring[i] < ring[j] })
	self := -1
	for i, id := range ring {
		if id == cfg.ID {
			self = i
		}
	}
	if self < 0 {
		return nil, fmt.Errorf("rac: node %v not in membership", cfg.ID)
	}
	return &Node{
		cfg:   cfg,
		id:    cfg.ID,
		ring:  ring,
		succ:  ring[(self+1)%len(ring)],
		pred:  ring[(self-1+len(ring))%len(ring)],
		store: update.NewStore(),
	}, nil
}

// ID implements sim.Protocol.
func (n *Node) ID() model.NodeID { return n.id }

// Stats returns the node's counters.
func (n *Node) Stats() Stats { return n.stats }

// InjectUpdates queues source content for the next round's slots.
func (n *Node) InjectUpdates(us []update.Update) {
	n.injected = append(n.injected, us...)
}

// slotMsg is one ring slot: originated by Origin, forwarded hop by hop.
type slotMsg struct {
	Round  model.Round
	Origin model.NodeID
	Seq    uint32 // slot index within the origin's round emission
	// Real marks a content-bearing slot; cover slots are padding.
	Real    bool
	Content []byte // marshalled update for real slots, padding otherwise
	Sig     []byte // origin's signature
}

func (m *slotMsg) layout(c wire.Codec) {
	c.Kind(kindSlot)
	c.Round(&m.Round)
	c.Node(&m.Origin)
	c.U32(&m.Seq)
	c.Bool(&m.Real)
	c.Bytes(&m.Content)
}

// unmarshalSlot decodes a slot; Content and Sig are views into b.
func unmarshalSlot(b []byte) (*slotMsg, error) {
	m, r := new(slotMsg), wire.NewReader(b)
	m.layout(r.Codec())
	if err := r.Signature(&m.Sig); err != nil {
		return nil, err
	}
	return m, nil
}

// encodeUpdate/decodeUpdate carry one update inside a real slot; the
// decoded update aliases b.
func encodeUpdate(u *update.Update) []byte {
	w := wire.NewWriter()
	w.Codec().Update(u)
	return w.Finish()
}

func decodeUpdate(b []byte) (update.Update, error) {
	var u update.Update
	r := wire.NewReader(b)
	r.Codec().Update(&u)
	if err := r.Done(); err != nil {
		return update.Update{}, err
	}
	return u, nil
}

// ---------------------------------------------------------------------------
// Round phases (sim.Protocol)
// ---------------------------------------------------------------------------

// SlotRate fixes how many slots every member emits per round. It must be
// uniform across the ring: a node emitting more slots than its peers would
// de-anonymise itself.
const SlotRate = 1

// refreshRing re-derives the ring from the membership in effect at round
// r, so churn (joins, leaves, crashes) re-seats every node's ring
// neighbours at the epoch boundary. The member list is only re-read when
// the epoch actually moves, so a static run keeps the construction-time
// ring. A node that is itself no longer a member keeps its last ring (the
// engine stops driving it anyway).
func (n *Node) refreshRing(r model.Round) {
	epoch := n.cfg.Directory.EpochIndex(r)
	if n.ringValid && epoch == n.ringEpoch {
		return
	}
	n.ringEpoch = epoch
	n.ringValid = true
	ring := n.cfg.Directory.MembersAt(r) // already sorted
	self := -1
	for i, id := range ring {
		if id == n.id {
			self = i
			break
		}
	}
	if self < 0 {
		return
	}
	n.ring = ring
	n.selfIdx = self
	n.succ = ring[(self+1)%len(ring)]
	n.pred = ring[(self-1+len(ring))%len(ring)]
}

// SetBehavior swaps the node's deviation profile at a round boundary —
// the scenario engine's adversary-activation hook.
func (n *Node) SetBehavior(b Behavior) { n.cfg.Behavior = b }

// Behavior returns the node's current deviation profile.
func (n *Node) Behavior() Behavior { return n.cfg.Behavior }

// BeginRound emits this node's slots: real ones for pending content,
// padded cover slots otherwise.
func (n *Node) BeginRound(r model.Round) {
	n.round = r
	n.refreshRing(r)
	n.seenOrigins = make(map[model.NodeID]int, len(n.ring))

	if n.cfg.Behavior.NoCover && len(n.injected) == 0 {
		return
	}
	for i := 0; i < SlotRate; i++ {
		slot := &slotMsg{Round: r, Origin: n.id, Seq: uint32(i)}
		if len(n.injected) > 0 {
			u := n.injected[0]
			n.injected = n.injected[1:]
			slot.Real = true
			slot.Content = encodeUpdate(&u)
			n.store.Add(u, r, 1)
		} else {
			slot.Content = make([]byte, n.cfg.SlotBytes)
		}
		// One encoding in a pooled buffer, signed in place and lent to
		// the send.
		w := wire.GetWriter()
		slot.layout(w.Codec())
		if w.Sign(n.cfg.Identity) == nil {
			n.stats.SlotsEmitted++
			_ = transport.SendLent(n.cfg.Endpoint, kindSlot, w.Finish(), n.succ)
		}
		w.Release()
	}
}

// MidRound is a no-op for RAC.
func (n *Node) MidRound(model.Round) {}

// EndRound audits the round's slot coverage: every other member's slots
// must have passed by. Blame is localised before it is assigned: a slot
// of origin o travels the arc o → o+1 → … → pred → self, so a relay
// dropper at b starves exactly the origins upstream of b while b itself
// (its own emission needs no relay through b) still arrives. Missing
// origins therefore group into contiguous ring runs, and the member just
// downstream of a run is where the chain broke. Blaming the predecessor
// (or the missing origins themselves) wholesale would frame every honest
// node downstream of one dropper — and a punishment loop would then evict
// half the ring for a single deviator.
func (n *Node) EndRound(r model.Round) {
	size := len(n.ring)
	if size < 2 {
		return
	}
	at := func(k int) model.NodeID { return n.ring[(n.selfIdx+k)%size] }
	seen := func(k int) bool { return n.seenOrigins[at(k)] >= SlotRate }
	// Walk the arc from the successor around to the predecessor in flow
	// order, grouping missing origins into runs.
	for k := 1; k < size; {
		if seen(k) {
			k++
			continue
		}
		start := k
		for k < size && !seen(k) {
			k++
		}
		switch {
		case k-start == 1 && k < size:
			// A single missing origin with its downstream neighbour
			// intact: the origin skipped its cover emission. (A dropper
			// directly upstream of that neighbour is locally
			// indistinguishable — resolving the ambiguity needs the
			// other members' observations, which the shared verdict
			// registry aggregates; a lone mistaken accusation stays
			// below any sane conviction threshold.)
			n.report(judicial.Verdict{Round: r, Kind: VerdictDroppedSlots, Accused: at(start),
				Detail: "no cover slot emitted"})
		case k == size:
			// The run reaches the predecessor: nothing at all came in.
			n.report(judicial.Verdict{Round: r, Kind: VerdictDroppedSlots, Accused: n.pred,
				Detail: fmt.Sprintf("%d origins missing: predecessor relayed nothing",
					k-start)})
		default:
			// The first member downstream of the run received nothing
			// from it yet arrived itself: the relay chain broke there.
			n.report(judicial.Verdict{Round: r, Kind: VerdictDroppedSlots, Accused: at(k),
				Detail: fmt.Sprintf("%d origins missing: relay chain broken at %v",
					k-start, at(k))})
		}
	}
}

// CloseRound delivers playable content.
func (n *Node) CloseRound(r model.Round) {
	for _, e := range n.store.Undelivered(r) {
		e.Delivered = true
		n.stats.UpdatesDelivered++
		if n.cfg.OnDeliver != nil {
			n.cfg.OnDeliver(e.Update)
		}
	}
	if r > 24 {
		n.store.DropBefore(r - 24)
	}
	n.stats.RoundsRun++
}

// HandleMessage relays and consumes ring slots.
func (n *Node) HandleMessage(msg transport.Message) {
	if msg.Kind != kindSlot || msg.From != n.pred {
		return
	}
	slot, err := unmarshalSlot(msg.Payload)
	if err != nil || slot.Round != n.round {
		return
	}
	// The origin's signature is checked over the received bytes.
	if pki.VerifyCounted(n.cfg.Suite, n.cfg.Identity.Counter(),
		slot.Origin, wire.SignedPrefix(msg.Payload, slot.Sig), slot.Sig) != nil {
		return
	}
	n.seenOrigins[slot.Origin]++

	if slot.Real {
		if u, err := decodeUpdate(slot.Content); err == nil {
			if u.ID.Stream == 0 {
				w := wire.GetWriter()
				if n.cfg.Suite.Verify(n.cfg.Source, w.Canonical(&u), u.SrcSig) == nil {
					// u aliases the delivered slot: the store keeps a copy.
					n.store.Add(u.Clone(), n.round, 1)
				}
				w.Release()
			}
		}
	}

	// The slot dies once it has completed the loop back to the node
	// just before its origin.
	if n.succ == slot.Origin {
		return
	}
	if n.cfg.Behavior.DropRelays {
		return
	}
	n.stats.SlotsRelayed++
	// The delivered payload is only lent to this handler, and the handler
	// lends it on: a socket copies it before the arena can be reused, and
	// MemNet, which keeps what it is sent, gets a copy of its own.
	_ = transport.SendLent(n.cfg.Endpoint, kindSlot, msg.Payload, n.succ)
}

func (n *Node) report(v judicial.Verdict) {
	if n.cfg.Verdicts != nil {
		v.Reporter = n.id
		n.cfg.Verdicts(v)
	}
}
