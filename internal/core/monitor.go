package core

import (
	"cmp"
	"fmt"
	"math/big"
	"slices"

	"repro/internal/hhash"
	"repro/internal/judicial"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wire"
)

// This file implements the monitor role (Fig 6 and §V-B/§V-C): obligation
// accumulation through lifted attestations, hash-share broadcasts,
// acknowledgement relaying between monitoring sets, digest cross-checks and
// the verification/judgement passes.

// monNodeRound is a monitor's per-(monitored node, round) state.
type monNodeRound struct {
	y model.NodeID
	// obligation accumulates ∏ lifted forwardable attestation hashes:
	// at round end it equals H(∏ received u^c)_(K(R,Y),M) (§V-C). Its
	// value leaves it only as a copy (obligationOf).
	obligation hhash.Fold
	// digest is Y's self-reported value (§V-B), once hasDigest.
	digest    big.Int
	hasDigest bool
	// peers holds what the monitor learned about Y's neighbours of the
	// round, one record each, appended as admitted messages name them:
	// predecessors whose exchange a share folded in and successors a Nack
	// or investigation is about, so at most Y's in-degree plus the
	// fanout. It is never drawn from the directory up front: a message
	// about round r+1 can arrive before r+1's epoch exists.
	peers []monPeer
	// acks holds the acknowledgement hash of each successor of Y that one
	// was relayed for (message 9 or Confirm), so at most the fanout.
	acks []monAck
	// suspect marks the obligation provably incomplete: the digest
	// cross-check failed with missing shares (a designated monitor went
	// silent — e.g. crashed undetected), so this round's obligation must
	// not be used as a conviction baseline.
	suspect bool
}

// monPeer is what a monitor knows about one neighbour of a monitored node
// Y in one round.
type monPeer struct {
	id model.NodeID
	// shared marks that the exchange of Y's predecessor id has been folded
	// into the obligation.
	shared bool
	// nacked marks the successor excused by a Nack from its monitors,
	// requested that it is under AckRequest investigation, and exhibit
	// holds Y's AckExhibit answer for it.
	nacked    bool
	requested bool
	exhibit   *exhibit
}

// exhibit is a monitored node's answer to an AckRequest: a copy of the Ack
// it exhibited, if any, and its claim to have accused the successor
// instead.
type exhibit struct {
	ack     []byte
	accused bool
}

// monAck is the acknowledgement hash a successor sent the monitored node,
// in storage its record keeps.
type monAck struct {
	succ model.NodeID
	h    big.Int
}

// reset empties the record for reuse. Its lists keep their arrays, and
// the hash values their storage, zeroed.
func (st *monNodeRound) reset() {
	clear(st.peers)
	for i := range st.acks {
		a := &st.acks[i]
		a.succ = model.NoNode
		a.h.SetUint64(0)
	}
	st.obligation.Reset()
	st.digest.SetUint64(0)
	st.y, st.hasDigest, st.suspect = model.NoNode, false, false
	st.peers, st.acks = st.peers[:0], st.acks[:0]
}

// find returns id's record, or nil.
func (st *monNodeRound) find(id model.NodeID) *monPeer {
	for i := range st.peers {
		if st.peers[i].id == id {
			return &st.peers[i]
		}
	}
	return nil
}

// peer returns id's record, appending one if there is none. The pointer is
// valid until the next append to the list.
func (st *monNodeRound) peer(id model.NodeID) *monPeer {
	if p := st.find(id); p != nil {
		return p
	}
	st.peers = append(st.peers, monPeer{id: id})
	return &st.peers[len(st.peers)-1]
}

// ackOf returns the acknowledgement hash succ sent, or nil. The pointer is
// valid until the next keepAck.
func (st *monNodeRound) ackOf(succ model.NodeID) *big.Int {
	for i := range st.acks {
		if st.acks[i].succ == succ {
			return &st.acks[i].h
		}
	}
	return nil
}

// keepAck records h as succ's acknowledgement hash unless one is kept
// already, in the storage of the slot past the list's end when its array
// has one.
func (st *monNodeRound) keepAck(succ model.NodeID, h *big.Int) {
	if st.ackOf(succ) != nil {
		return
	}
	st.acks = slices.Grow(st.acks, 1)[:len(st.acks)+1]
	a := &st.acks[len(st.acks)-1]
	a.succ = succ
	a.h.Set(h)
}

// monRound is a monitor's state for one round: a record for each node it
// monitors that the round's admitted messages named, the Ack copies
// (message 6) they reported and the probes accusations about the round
// opened. A monitor keeps its rounds in one ring (monitorState.rounds),
// and a round taking a slot resets what the slot held, keeping its
// storage, so a monitor in steady state allocates none.
type monRound struct {
	r     model.Round
	nodes []*monNodeRound
	// The round's Ack copies, kept past their delivery as evidence: their
	// bytes back to back in buf, as a node keeps its own (Node.keep), and
	// in index the exchange each one acknowledges.
	buf   []byte
	index []ackCopy
	// probes holds one record per accusation the monitor relayed (§IV-A).
	probes []probe
}

// ackCopy is the Ack copy a monitored node reported for its exchange with
// pred.
type ackCopy struct {
	monitored, pred model.NodeID
	b               []byte
}

// probe is an accusation by accuser against accused, resolved once an
// acknowledgement answered it or verify judged it.
type probe struct {
	accuser, accused model.NodeID
	resolved         bool
}

// copyOf returns the copy of monitored's exchange with pred, or nil.
func (mr *monRound) copyOf(monitored, pred model.NodeID) *ackCopy {
	for i := range mr.index {
		if k := &mr.index[i]; k.monitored == monitored && k.pred == pred {
			return k
		}
	}
	return nil
}

// keepCopy keeps b as the copy of monitored's exchange with pred, in place
// of an earlier one, and returns the kept bytes. A copy that fits where the
// earlier one lies is written over it, so a node sending its copy again
// does not grow buf.
func (mr *monRound) keepCopy(monitored, pred model.NodeID, b []byte) []byte {
	k := mr.copyOf(monitored, pred)
	if k == nil {
		mr.index = append(mr.index, ackCopy{monitored: monitored, pred: pred})
		k = &mr.index[len(mr.index)-1]
	} else if len(b) <= cap(k.b) {
		k.b = k.b[:copy(k.b[:cap(k.b)], b)]
		return k.b
	}
	start := len(mr.buf)
	mr.buf = append(mr.buf, b...)
	k.b = mr.buf[start:len(mr.buf):len(mr.buf)]
	return k.b
}

// rewindCopies empties the Ack copies, poisoning their bytes first; buf
// and index keep their arrays.
func (mr *monRound) rewindCopies() {
	wire.PoisonOnRelease(mr.buf)
	clear(mr.index)
	mr.buf, mr.index = mr.buf[:0], mr.index[:0]
}

// probe returns the probe of accuser's accusation against accused, or nil.
func (mr *monRound) probe(accuser, accused model.NodeID) *probe {
	for i := range mr.probes {
		if p := &mr.probes[i]; p.accuser == accuser && p.accused == accused {
			return p
		}
	}
	return nil
}

// reset empties the slot for round r, keeping its storage. Records past
// the list's length, which the slot's last round did not need, are let
// go: the nodes a monitor watches change with membership, and a slot
// would otherwise keep the most it ever needed.
func (mr *monRound) reset(r model.Round) {
	for _, st := range mr.nodes {
		st.reset()
	}
	clear(mr.nodes[len(mr.nodes):cap(mr.nodes)])
	mr.rewindCopies()
	mr.r, mr.nodes, mr.probes = r, mr.nodes[:0], mr.probes[:0]
}

// monitorState is the monitor-role state of a node.
type monitorState struct {
	n *Node

	// monitored caches the inverse monitor relation for the current
	// epoch: the nodes this node is responsible for.
	monitored      []model.NodeID
	monitoredEpoch int
	monitoredValid bool

	// rounds holds round r's state at r mod its length, which is the
	// admission window's: once the node has begun a round, no two rounds it
	// admits monitor messages about share a slot, and before that a round
	// takes its slot from whatever round held it.
	rounds [monitorKeep + 2]monRound

	// Storage the monitor reuses: others is what peers returns, and
	// obligation what obligationOf does.
	others     []model.NodeID
	obligation big.Int
}

func newMonitorState(n *Node) *monitorState {
	return &monitorState{n: n}
}

// at returns round r's state, or nil when its slot holds another round.
func (m *monitorState) at(r model.Round) *monRound {
	if mr := &m.rounds[r%model.Round(len(m.rounds))]; mr.r == r {
		return mr
	}
	return nil
}

// round returns round r's state, resetting its slot for r when that holds
// another round.
func (m *monitorState) round(r model.Round) *monRound {
	mr := &m.rounds[r%model.Round(len(m.rounds))]
	if mr.r != r {
		mr.reset(r)
	}
	return mr
}

// find returns y's record of round r, or nil.
func (m *monitorState) find(r model.Round, y model.NodeID) *monNodeRound {
	if mr := m.at(r); mr != nil {
		for _, st := range mr.nodes {
			if st.y == y {
				return st
			}
		}
	}
	return nil
}

// state returns y's record of round r, opening one if there is none.
func (m *monitorState) state(r model.Round, y model.NodeID) *monNodeRound {
	if st := m.find(r, y); st != nil {
		return st
	}
	mr := m.round(r)
	k := len(mr.nodes)
	mr.nodes = slices.Grow(mr.nodes, 1)[:k+1]
	if mr.nodes[k] == nil {
		// A peer record each for Y's usual in-degree and fanout, an
		// acknowledgement for each successor.
		f := m.n.sh.Directory.Fanout()
		mr.nodes[k] = &monNodeRound{peers: make([]monPeer, 0, 2*f), acks: make([]monAck, 0, f)}
	}
	st := mr.nodes[k]
	st.y = y
	return st
}

// beginRound refreshes the inverse monitor index when the membership epoch
// changes (without churn the scan happens exactly once).
func (m *monitorState) beginRound(r model.Round) {
	epoch := m.n.sh.Directory.MonitorEpoch(r)
	if m.monitoredValid && m.monitoredEpoch == epoch {
		return
	}
	m.monitoredEpoch = epoch
	m.monitoredValid = true
	m.monitored = m.monitored[:0]
	for _, y := range m.n.sh.Directory.MembersAt(r) {
		if y == m.n.id {
			continue
		}
		if m.n.sh.Directory.IsMonitorOf(m.n.id, y, r) {
			m.monitored = append(m.monitored, y)
		}
	}
}

// ---------------------------------------------------------------------------
// Message 6: Ack copy from the monitored node
// ---------------------------------------------------------------------------

// keepAcks is how many rounds back a monitor keeps Ack copies. They are
// only consulted at their own round (onAttForward and onAccusation both
// key by the in-flight round), so they get a tighter horizon than the
// investigation state: they are the monitor's heaviest per-round buffers.
const keepAcks = 2

// onAckCopy keeps the copy of an acknowledgement the monitored node sent.
// Only a copy of an exchange of its round is ever read, so only one is
// kept: the copies a monitor holds are at most its monitored nodes'
// in-degree per round, whatever the monitored nodes send.
func (m *monitorState) onAckCopy(ack *wire.Ack, body []byte) {
	if _, ok := m.n.sh.Directory.ExchangeSlot(ack.To, ack.From, ack.Round); !ok {
		return
	}
	mr := m.round(ack.Round)
	ackBytes := mr.keepCopy(ack.From, ack.To, body) // evidence: outlives the delivery

	// A pending probe against ack.From for the exchange with ack.To is
	// resolved by this acknowledgement: confirm to the accuser's
	// monitors (§IV-A).
	if p := mr.probe(ack.To, ack.From); p != nil && !p.resolved {
		p.resolved = true
		m.relayAck(ack.Round, ack.To, ackBytes, true)
	}
}

// ---------------------------------------------------------------------------
// Message 7 → 8: attestation forward and hash-share broadcast
// ---------------------------------------------------------------------------

// onAttForward lifts an admitted AttForward's attestation by its parsed
// remainder and shares the result with the monitored node's other monitors.
func (m *monitorState) onAttForward(fwd *wire.AttForward, remainder hhash.Key) {
	in := carried(fwd.From, fwd.Round, fwd.AttBytes)
	defer in.release()
	if !m.n.admit(&forwardedAttestation, &in) {
		return
	}
	att := in.m.(*wire.Attestation)
	hExp, errE := m.n.sh.HashParams.DecodeValue(&m.n.decoded[0], att.HExpiring)
	hFwd, errF := m.n.sh.HashParams.DecodeValue(&m.n.decoded[1], att.HForwardable)
	if errE != nil || errF != nil {
		return
	}

	// Lift to K(R,B):  (H(S_A)_(p_j))^(∏_{k≠j}p_k)  (§V-B).
	m.n.out.values = m.n.out.values[:0]
	encExp, errE := m.n.encodeValue(m.n.hasher.Lift(hExp, remainder))
	encFwd, errF := m.n.encodeValue(m.n.hasher.Lift(hFwd, remainder))
	if errE != nil || errF != nil {
		return
	}

	ackBytes := m.ackCopyFor(fwd.Round, fwd.From, att.From)
	share := &m.n.out.share
	*share = wire.HashShare{
		Round:      fwd.Round,
		From:       m.n.id,
		Monitored:  fwd.From,
		Pred:       att.From,
		HExpLifted: encExp,
		HFwdLifted: encFwd,
		AckBytes:   ackBytes,
	}
	// Broadcast to the other monitors of the monitored node (msg 8) and
	// fold the share in locally.
	others, _ := m.peers(fwd.From, fwd.Round)
	m.n.signAndSendAll(others, share)
	m.applyShare(share)
	*share = wire.HashShare{}

	// Relay the acknowledgement to the predecessor's monitors (msg 9).
	if len(ackBytes) > 0 {
		m.relayAck(fwd.Round, att.From, ackBytes, false)
	}
}

// peers splits the monitors of y at round r into the others and whether
// this node is one of them. The others are valid until the next call.
func (m *monitorState) peers(y model.NodeID, r model.Round) (others []model.NodeID, self bool) {
	monitors := m.n.sh.Directory.Monitors(y, r)
	others = m.others[:0]
	for _, peer := range monitors {
		if peer == m.n.id {
			self = true
		} else {
			others = append(others, peer)
		}
	}
	m.others = others
	return others, self
}

func (m *monitorState) ackCopyFor(r model.Round, monitored, pred model.NodeID) []byte {
	if mr := m.at(r); mr != nil {
		if k := mr.copyOf(monitored, pred); k != nil {
			return k.b
		}
	}
	return nil
}

// relayAck sends an AckRelay (message 9, or a Confirm when confirm=true)
// to every monitor of the predecessor.
func (m *monitorState) relayAck(r model.Round, pred model.NodeID, ackBytes []byte, confirm bool) {
	if m.n.trace.Enabled() {
		// The exchange id needs the acknowledging successor, which only
		// the ack body carries — decode it just for the trace.
		var ack wire.Ack
		if ack.Decode(ackBytes) == nil {
			m.n.trace.Emit("ack_relay",
				obs.XID(model.ExchangeID(r, pred, ack.From)),
				obs.F("round", r), obs.F("from", pred), obs.F("to", ack.From),
				obs.F("monitor", m.n.id), obs.F("confirm", confirm))
		}
	}
	relay := &m.n.out.relay
	if confirm {
		*relay = *wire.NewConfirm(r, m.n.id, ackBytes)
	} else {
		*relay = *wire.NewAckForward(r, m.n.id, ackBytes)
	}
	others, self := m.peers(pred, r)
	m.n.signAndSendAll(others, relay)
	*relay = wire.AckRelay{}
	if self {
		m.acceptRelayedAck(m.n.id, r, ackBytes)
	}
}

func (m *monitorState) onHashShare(share *wire.HashShare) {
	first := m.applyShare(share)
	// Message 9 is sent by *all* of B's monitors ("the monitors of node B
	// have to forward them the acknowledgement", §V-C), so a single
	// silent monitor cannot make an honest sender look guilty.
	if first && len(share.AckBytes) > 0 {
		m.relayAck(share.Round, share.Pred, share.AckBytes, false)
	}
}

// applyShare folds one exchange into the monitored node's obligation,
// reporting whether it was new.
func (m *monitorState) applyShare(share *wire.HashShare) bool {
	st := m.state(share.Round, share.Monitored)
	p := st.peer(share.Pred)
	if p.shared {
		return false // duplicate
	}
	p.shared = true
	if hFwd, err := m.n.sh.HashParams.DecodeValue(&m.n.decoded[0], share.HFwdLifted); err == nil {
		m.n.hasher.Mul(&st.obligation, hFwd, 1)
	}
	if m.n.trace != nil {
		m.n.trace.Emit("monitor_share",
			obs.XID(model.ExchangeID(share.Round, share.Pred, share.Monitored)),
			obs.F("round", share.Round), obs.F("from", share.Pred),
			obs.F("to", share.Monitored), obs.F("monitor", m.n.id),
			obs.F("designated", share.From))
	}
	return true
}

// ---------------------------------------------------------------------------
// Message 9 / Confirm reception (this node monitors the predecessor)
// ---------------------------------------------------------------------------

// acceptRelayedAck records the acknowledgement an AckRelay from relayer
// carries, for the acknowledged node's forwarding check, which reads only
// its successors' acknowledgements: another signer's is not kept.
func (m *monitorState) acceptRelayedAck(relayer model.NodeID, r model.Round, ackBytes []byte) {
	in := carried(relayer, r, ackBytes)
	defer in.release()
	if !m.n.admit(&relayedAck, &in) {
		return
	}
	ack := in.m.(*wire.Ack)
	if _, ok := m.n.sh.Directory.ExchangeSlot(ack.To, ack.From, ack.Round); !ok {
		return
	}
	h, err := m.n.sh.HashParams.DecodeValue(&m.n.decoded[0], ack.H)
	if err != nil {
		return
	}
	m.state(ack.Round, ack.To).keepAck(ack.From, h)
}

// onNack excuses an investigated successor: its own monitors report it
// stayed unresponsive, so the sender is not at fault (§IV-A). A Nack about
// anyone but a successor of the accuser excuses nothing.
func (m *monitorState) onNack(nack *wire.Nack) {
	if _, ok := m.n.sh.Directory.ExchangeSlot(nack.Accuser, nack.Against, nack.Round); ok {
		m.state(nack.Round, nack.Accuser).peer(nack.Against).nacked = true
	}
}

// ---------------------------------------------------------------------------
// NodeDigest (§V-B cross-check)
// ---------------------------------------------------------------------------

func (m *monitorState) onNodeDigest(d *wire.NodeDigest) {
	if h, err := m.n.sh.HashParams.DecodeValue(&m.n.decoded[0], d.HFwd); err == nil {
		st := m.state(d.Round, d.From)
		st.digest.Set(h)
		st.hasDigest = true
	}
}

// ---------------------------------------------------------------------------
// Verification and judgement
// ---------------------------------------------------------------------------

// verify runs at EndRound(r): it checks every monitored node's round-r
// forwarding against its round-(r-1) obligation, opens investigations for
// missing acknowledgements, audits Nack-pending probes and cross-checks
// digests.
func (m *monitorState) verify(r model.Round) {
	// Unresolved probes: the accused ignored the monitors — R1 verdict
	// and a Nack towards the accuser's monitors (§IV-A). They are judged
	// in (accuser, accused) order, so which exchange a verdict's first
	// report names, and the order the Nacks leave in, repeat per seed.
	if mr := m.at(r); mr != nil {
		slices.SortFunc(mr.probes, func(a, b probe) int {
			return cmp.Or(cmp.Compare(a.accuser, b.accuser), cmp.Compare(a.accused, b.accused))
		})
		for i := range mr.probes {
			p := &mr.probes[i]
			if p.resolved {
				continue
			}
			p.resolved = true
			m.n.report(judicial.Verdict{Round: r, Kind: VerdictUnresponsive,
				Accused: p.accused, Detail: "ignored monitor probe",
				Exchange: model.ExchangeID(r, p.accuser, p.accused)})
			nack := &wire.Nack{Round: r, From: m.n.id, Accuser: p.accuser, Against: p.accused}
			others, self := m.peers(p.accuser, r)
			m.n.signAndSendAll(others, nack)
			if self {
				m.state(r, p.accuser).peer(p.accused).nacked = true
			}
		}
	}

	// Epoch boundary check, hoisted: when the membership epoch did not
	// move between r-1 and r (the overwhelmingly common case), monitor
	// assignments are identical in both rounds and the baseline is always
	// the own accumulation — skip baseline's O(N) recomputations.
	boundary := r > 0 &&
		m.n.sh.Directory.MonitorEpoch(r) != m.n.sh.Directory.MonitorEpoch(r-1)

	for _, y := range m.monitored {
		st := m.state(r, y)

		// Forwarding check: every round-r successor must have
		// acknowledged exactly the round-(r-1) obligation. Sources are
		// assumed correct and emit fresh content (§III).
		if y == m.n.sh.Source {
			continue
		}
		// The baseline is the monitor's own round-(r-1) accumulation. A
		// suspect one (the digest cross-check proved it incomplete) must
		// not convict: it would frame an honest forwarder. None at all (y
		// joined this round, or this monitor was seated at this round's
		// epoch boundary) skips the check; y's staying monitors make it.
		prev, suspect, ok := m.baseline(r, y, boundary)
		if !ok || suspect {
			continue
		}
		for _, succ := range m.n.sh.Directory.Successors(y, r) {
			p, ack := st.find(succ), st.ackOf(succ)
			switch {
			case ack != nil && ack.Cmp(prev) != 0:
				m.n.report(judicial.Verdict{Round: r, Kind: VerdictWrongForward,
					Accused:  y,
					Detail:   fmt.Sprintf("ack from %v does not match obligation", succ),
					Exchange: model.ExchangeID(r, y, succ)})
			case ack != nil || p != nil && p.nacked:
				// Acknowledged, or excused: the successor was nacked by
				// its monitors.
			default:
				st.peer(succ).requested = true
				req := &wire.AckRequest{Round: r, From: m.n.id, Succ: succ}
				m.n.signAndSend(y, req)
				if m.n.trace != nil {
					m.n.trace.Emit("ack_request",
						obs.XID(model.ExchangeID(r, y, succ)),
						obs.F("round", r), obs.F("from", y), obs.F("to", succ),
						obs.F("monitor", m.n.id))
				}
			}
		}
	}
}

// obligationOf returns the accumulated obligation of y for round r (1 when
// no exchange was folded in), valid until the next call.
func (m *monitorState) obligationOf(r model.Round, y model.NodeID) *big.Int {
	if st := m.find(r, y); st != nil {
		return m.n.hasher.FoldValue(&m.obligation, &st.obligation)
	}
	return m.obligation.SetUint64(1)
}

// baseline resolves the round-(r-1) obligation that y's round-r forwarding
// is verified against, with its suspect flag; ok=false means no baseline
// exists and the check must be skipped. Off an epoch boundary, or when
// this monitor already monitored y at r-1, it is the monitor's own
// accumulation. A monitor seated at the boundary, or one whose y joined
// there, has none.
func (m *monitorState) baseline(r model.Round, y model.NodeID, boundary bool) (prev *big.Int, suspect, ok bool) {
	if boundary && (!m.n.sh.Directory.ContainsAt(y, r-1) || !m.n.sh.Directory.IsMonitorOf(m.n.id, y, r-1)) {
		return nil, false, false
	}
	if prevSt := m.find(r-1, y); prevSt != nil {
		suspect = prevSt.suspect
	}
	return m.obligationOf(r-1, y), suspect, true
}

// blameDigestMismatch attributes a digest/obligation conflict: if the
// designated monitor for a predecessor exchange never shared it, that
// monitor is blamed (§V-B: "Monitors are then able to check each other's
// correctness"); otherwise the monitored node mis-reported.
func (m *monitorState) blameDigestMismatch(r model.Round, y model.NodeID, st *monNodeRound) {
	monitors := m.n.sh.Directory.Monitors(y, r)
	blamedMonitor := false
	for _, pred := range m.n.sh.Directory.Predecessors(y, r) {
		if p := st.find(pred); p != nil && p.shared {
			continue
		}
		d := designatedMonitor(monitors, pred, r)
		if d != model.NoNode && d != m.n.id {
			m.n.report(judicial.Verdict{Round: r, Kind: VerdictMonitorSilent,
				Accused:  d,
				Detail:   fmt.Sprintf("no hash share for exchange %v→%v", pred, y),
				Exchange: model.ExchangeID(r, pred, y)})
			blamedMonitor = true
		}
	}
	if !blamedMonitor {
		m.n.report(judicial.Verdict{Round: r, Kind: VerdictDigestMismatch,
			Accused: y, Detail: "self-digest disagrees with accumulated obligation"})
	}
}

// judge runs at CloseRound(r): it resolves the investigations opened by
// verify using the AckExhibit answers (§IV-A's guilt assignment).
func (m *monitorState) judge(r model.Round) {
	boundary := r > 0 &&
		m.n.sh.Directory.MonitorEpoch(r) != m.n.sh.Directory.MonitorEpoch(r-1)
	for _, y := range m.monitored {
		st := m.find(r, y)
		if st == nil {
			continue
		}

		// Digest cross-check (§V-B): by CloseRound all reports of the
		// round have settled, so the node's self-digest must match the
		// accumulated obligation. A mismatch also poisons the round's
		// obligation as a forwarding baseline (see verify).
		if st.hasDigest && st.digest.Cmp(m.obligationOf(r, y)) != 0 {
			m.blameDigestMismatch(r, y, st)
			st.suspect = true
		}

		// Investigations exist only where verify resolved a baseline; the
		// same resolution applies at judgement.
		prev, _, okBase := m.baseline(r, y, boundary)
		if !okBase {
			prev = m.obligation.SetUint64(1)
		}
		// In successor order: the first of several same-key reports is
		// the one the registry keeps.
		if !slices.ContainsFunc(st.peers, func(p monPeer) bool { return p.requested }) {
			continue
		}
		for _, succ := range m.n.sh.Directory.Successors(y, r) {
			p := st.find(succ)
			if p == nil || !p.requested {
				continue
			}
			if ack := st.ackOf(succ); ack != nil {
				// A Confirm arrived during the investigation window.
				if ack.Cmp(prev) != 0 {
					m.n.report(judicial.Verdict{Round: r, Kind: VerdictWrongForward,
						Accused:  y,
						Detail:   fmt.Sprintf("confirmed ack from %v mismatches obligation", succ),
						Exchange: model.ExchangeID(r, y, succ)})
				}
				continue
			}
			if p.nacked {
				continue // the successor was the guilty party
			}
			switch ex := p.exhibit; {
			case ex == nil:
				m.n.report(judicial.Verdict{Round: r, Kind: VerdictNoForward,
					Accused:  y,
					Detail:   fmt.Sprintf("no answer to AckRequest for successor %v", succ),
					Exchange: model.ExchangeID(r, y, succ)})
			case len(ex.ack) > 0:
				m.judgeExhibitedAck(r, y, succ, prev, ex.ack)
			case ex.accused:
				// "otherwise node B is considered guilty": the
				// accusation flow owns the outcome (Confirm or
				// Nack); nothing further to judge here.
			default:
				m.n.report(judicial.Verdict{Round: r, Kind: VerdictNoForward,
					Accused:  y,
					Detail:   fmt.Sprintf("cannot exhibit ack of %v and did not accuse", succ),
					Exchange: model.ExchangeID(r, y, succ)})
			}
		}
	}
}

func (m *monitorState) judgeExhibitedAck(r model.Round, y, succ model.NodeID, prev *big.Int, ackBytes []byte) {
	xid := model.ExchangeID(r, y, succ)
	var ack wire.Ack
	if ack.Decode(ackBytes) != nil || ack.From != succ || ack.To != y || ack.Round != r {
		m.n.report(judicial.Verdict{Round: r, Kind: VerdictNoForward,
			Accused: y, Detail: "exhibited ack is inconsistent", Exchange: xid})
		return
	}
	if m.n.sh.Suite.Verify(succ, wire.SignedPrefix(ackBytes, ack.Sig), ack.Sig) != nil {
		m.n.report(judicial.Verdict{Round: r, Kind: VerdictNoForward,
			Accused: y, Detail: "exhibited ack has a bad signature", Exchange: xid})
		return
	}
	h, err := m.n.sh.HashParams.DecodeValue(&m.n.decoded[0], ack.H)
	if err != nil || h.Cmp(prev) != 0 {
		m.n.report(judicial.Verdict{Round: r, Kind: VerdictWrongForward,
			Accused: y, Detail: fmt.Sprintf("exhibited ack of %v mismatches obligation", succ),
			Exchange: xid})
		return
	}
	// The exhibited ack is valid, so the successor *did* receive and
	// acknowledge — yet its monitors never relayed the acknowledgement:
	// the successor withheld its monitor report. "Otherwise node B is
	// considered guilty" (§IV-A).
	m.n.report(judicial.Verdict{Round: r, Kind: VerdictUnreportedExchange,
		Accused:  succ,
		Detail:   fmt.Sprintf("acknowledged %v's exchange but never reported it", y),
		Exchange: xid})
}

// gc rewinds the Ack copies of the rounds more than keepAcks behind r. The
// rest of a round's state stays until a later round takes its slot.
func (m *monitorState) gc(r model.Round) {
	for i := range m.rounds {
		if mr := &m.rounds[i]; mr.r+keepAcks < r {
			mr.rewindCopies()
		}
	}
}
