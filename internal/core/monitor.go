package core

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
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
	// obligation accumulates ∏ lifted forwardable attestation hashes:
	// at round end it equals H(∏ received u^c)_(K(R,Y),M) (§V-C). Its
	// value leaves it only as a copy (obligationOf).
	obligation hhash.Fold
	// sharesSeen marks which predecessors' exchanges have been folded in.
	sharesSeen map[model.NodeID]bool
	// digest is Y's self-reported value (§V-B), nil until received.
	digest *big.Int
	// succAcks collects, for Y as *sender*, the acknowledgement hashes of
	// Y's round-R successors (relayed via message 9 or Confirm).
	succAcks map[model.NodeID]*big.Int
	// succNacked marks successors excused by a Nack from their monitors.
	succNacked map[model.NodeID]bool
	// requested marks successors under AckRequest investigation.
	requested map[model.NodeID]bool
	// exhibits stores Y's AckExhibit answers.
	exhibits map[model.NodeID]*wire.AckExhibit
	// suspect marks the obligation provably incomplete: the digest
	// cross-check failed with missing shares (a designated monitor went
	// silent — e.g. crashed undetected), so this round's obligation must
	// not be used as a conviction baseline.
	suspect bool
}

// newMonNodeRound allocates the per-(node, round) shell. Only the two
// maps every round exercises are eager; succNacked, requested and
// exhibits exist solely during investigations (rare), so they allocate
// lazily — at scale the empty maps were a measurable share of monitor
// memory (watched × retained rounds × three map headers per node).
func newMonNodeRound() *monNodeRound {
	return &monNodeRound{
		sharesSeen: make(map[model.NodeID]bool),
		succAcks:   make(map[model.NodeID]*big.Int),
	}
}

// markNacked lazily records an excused successor.
func (st *monNodeRound) markNacked(succ model.NodeID) {
	if st.succNacked == nil {
		st.succNacked = make(map[model.NodeID]bool)
	}
	st.succNacked[succ] = true
}

// markRequested lazily records a successor under AckRequest investigation.
func (st *monNodeRound) markRequested(succ model.NodeID) {
	if st.requested == nil {
		st.requested = make(map[model.NodeID]bool)
	}
	st.requested[succ] = true
}

// putExhibit lazily stores an AckExhibit answer.
func (st *monNodeRound) putExhibit(succ model.NodeID, ex *wire.AckExhibit) {
	if st.exhibits == nil {
		st.exhibits = make(map[model.NodeID]*wire.AckExhibit)
	}
	st.exhibits[succ] = ex
}

// probeKey identifies one accusation probe.
type probeKey struct {
	accuser model.NodeID
	accused model.NodeID
	round   model.Round
}

// handoverRec is one outgoing monitor's obligation transfer for a
// monitored node, received at a monitor-rotation boundary.
type handoverRec struct {
	from    model.NodeID
	value   *big.Int
	suspect bool
	// enc is the wire encoding of value — the deterministic vote key.
	enc []byte
}

// voteKey collapses identical (value, suspect) transfers into one ballot.
func (h handoverRec) voteKey() string {
	if h.suspect {
		return "s" + string(h.enc)
	}
	return "o" + string(h.enc)
}

// monitorState is the monitor-role state of a node.
type monitorState struct {
	n *Node

	// monitored caches the inverse monitor relation for the current
	// epoch: the nodes this node is responsible for.
	monitored      []model.NodeID
	monitoredEpoch model.Round
	monitoredValid bool

	rounds map[model.Round]map[model.NodeID]*monNodeRound
	// ackCopies holds message-6 payloads keyed by (monitored, pred).
	ackCopies map[model.Round]map[[2]model.NodeID][]byte
	probes    map[probeKey]bool // true = resolved
	// handovers holds obligation transfers from outgoing monitors, keyed
	// by (obligation round, monitored node) — the forwarding-check
	// baseline for nodes this monitor took over at a rotation boundary.
	handovers map[model.Round]map[model.NodeID][]handoverRec
}

func newMonitorState(n *Node) *monitorState {
	return &monitorState{
		n:         n,
		rounds:    make(map[model.Round]map[model.NodeID]*monNodeRound),
		ackCopies: make(map[model.Round]map[[2]model.NodeID][]byte),
		probes:    make(map[probeKey]bool),
		handovers: make(map[model.Round]map[model.NodeID][]handoverRec),
	}
}

func (m *monitorState) state(r model.Round, y model.NodeID) *monNodeRound {
	per, ok := m.rounds[r]
	if !ok {
		per = make(map[model.NodeID]*monNodeRound)
		m.rounds[r] = per
	}
	st, ok := per[y]
	if !ok {
		st = newMonNodeRound()
		per[y] = st
	}
	return st
}

// beginRound refreshes the inverse monitor index when the monitor epoch
// changes (with static monitors the scan happens exactly once).
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

func (m *monitorState) onAckCopy(ack *wire.Ack, body []byte) {
	per, ok := m.ackCopies[ack.Round]
	if !ok {
		per = make(map[[2]model.NodeID][]byte)
		m.ackCopies[ack.Round] = per
	}
	ackBytes := bytes.Clone(body) // evidence: outlives the delivery
	per[[2]model.NodeID{ack.From, ack.To}] = ackBytes

	// A pending probe against ack.From for the exchange with ack.To is
	// resolved by this acknowledgement: confirm to the accuser's
	// monitors (§IV-A).
	key := probeKey{accuser: ack.To, accused: ack.From, round: ack.Round}
	if resolved, pending := m.probes[key]; pending && !resolved {
		m.probes[key] = true
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
	if !m.n.admit(&forwardedAttestation, &in) {
		return
	}
	att := in.m.(*wire.Attestation)
	hExp, errE := m.n.sh.HashParams.DecodeValue(att.HExpiring)
	hFwd, errF := m.n.sh.HashParams.DecodeValue(att.HForwardable)
	if errE != nil || errF != nil {
		return
	}

	// Lift to K(R,B):  (H(S_A)_(p_j))^(∏_{k≠j}p_k)  (§V-B).
	liftedExp := m.n.hasher.Lift(hExp, remainder)
	liftedFwd := m.n.hasher.Lift(hFwd, remainder)
	encExp, errE := m.n.sh.HashParams.EncodeValue(liftedExp)
	encFwd, errF := m.n.sh.HashParams.EncodeValue(liftedFwd)
	if errE != nil || errF != nil {
		return
	}

	ackBytes := m.ackCopyFor(fwd.Round, fwd.From, att.From)
	share := &wire.HashShare{
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

	// Relay the acknowledgement to the predecessor's monitors (msg 9).
	if len(ackBytes) > 0 {
		m.relayAck(fwd.Round, att.From, ackBytes, false)
	}
}

// peers splits the monitors of y at round r into the others and whether
// this node is one of them.
func (m *monitorState) peers(y model.NodeID, r model.Round) (others []model.NodeID, self bool) {
	monitors := m.n.sh.Directory.Monitors(y, r)
	others = make([]model.NodeID, 0, len(monitors))
	for _, peer := range monitors {
		if peer == m.n.id {
			self = true
		} else {
			others = append(others, peer)
		}
	}
	return others, self
}

func (m *monitorState) ackCopyFor(r model.Round, monitored, pred model.NodeID) []byte {
	if per, ok := m.ackCopies[r]; ok {
		return per[[2]model.NodeID{monitored, pred}]
	}
	return nil
}

// relayAck sends an AckRelay (message 9, or a Confirm when confirm=true)
// to every monitor of the predecessor.
func (m *monitorState) relayAck(r model.Round, pred model.NodeID, ackBytes []byte, confirm bool) {
	if m.n.trace.Enabled() {
		// The exchange id needs the acknowledging successor, which only
		// the ack body carries — unmarshal it just for the trace.
		if ack, err := wire.UnmarshalAck(ackBytes); err == nil {
			m.n.trace.Emit("ack_relay",
				obs.XID(model.ExchangeID(r, pred, ack.From)),
				obs.F("round", r), obs.F("from", pred), obs.F("to", ack.From),
				obs.F("monitor", m.n.id), obs.F("confirm", confirm))
		}
	}
	var relay *wire.AckRelay
	if confirm {
		relay = wire.NewConfirm(r, m.n.id, ackBytes)
	} else {
		relay = wire.NewAckForward(r, m.n.id, ackBytes)
	}
	others, self := m.peers(pred, r)
	m.n.signAndSendAll(others, relay)
	if self {
		m.acceptRelayedAck(relay)
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
	if st.sharesSeen[share.Pred] {
		return false // duplicate
	}
	st.sharesSeen[share.Pred] = true
	if hFwd, err := m.n.sh.HashParams.DecodeValue(share.HFwdLifted); err == nil {
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

// acceptRelayedAck records the acknowledgement an AckRelay carries, for
// the acknowledged node's forwarding check.
func (m *monitorState) acceptRelayedAck(relay *wire.AckRelay) {
	in := carried(relay.From, relay.Round, relay.AckBytes)
	if !m.n.admit(&relayedAck, &in) {
		return
	}
	ack := in.m.(*wire.Ack)
	h, err := m.n.sh.HashParams.DecodeValue(ack.H)
	if err != nil {
		return
	}
	st := m.state(ack.Round, ack.To)
	if _, ok := st.succAcks[ack.From]; !ok {
		st.succAcks[ack.From] = h
	}
}

// onNack excuses an investigated successor: its own monitors report it
// stayed unresponsive, so the sender is not at fault (§IV-A).
func (m *monitorState) onNack(nack *wire.Nack) {
	m.state(nack.Round, nack.Accuser).markNacked(nack.Against)
}

// ---------------------------------------------------------------------------
// NodeDigest (§V-B cross-check)
// ---------------------------------------------------------------------------

func (m *monitorState) onNodeDigest(d *wire.NodeDigest) {
	if h, err := m.n.sh.HashParams.DecodeValue(d.HFwd); err == nil {
		m.state(d.Round, d.From).digest = h
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
	var due []probeKey
	for key, resolved := range m.probes {
		if key.round == r && !resolved {
			due = append(due, key)
		}
	}
	slices.SortFunc(due, func(a, b probeKey) int {
		return cmp.Or(cmp.Compare(a.accuser, b.accuser), cmp.Compare(a.accused, b.accused))
	})
	for _, key := range due {
		m.probes[key] = true
		m.n.report(judicial.Verdict{Round: r, Kind: VerdictUnresponsive,
			Accused: key.accused, Detail: "ignored monitor probe",
			Exchange: model.ExchangeID(r, key.accuser, key.accused)})
		nack := &wire.Nack{Round: r, From: m.n.id, Accuser: key.accuser, Against: key.accused}
		others, self := m.peers(key.accuser, r)
		m.n.signAndSendAll(others, nack)
		if self {
			m.state(r, key.accuser).markNacked(key.accused)
		}
	}

	// Monitor-epoch boundary check, hoisted: when the monitor epoch did
	// not move between r-1 and r (the overwhelmingly common case),
	// membership and monitor assignments are identical in both rounds and
	// the baseline resolution below always takes the own-accumulation
	// fast path — skip its O(N) recomputations.
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
		// Baseline resolution: a monitor's own accumulation, or — when it
		// took over y at this round's epoch boundary — the obligation the
		// outgoing monitors handed over. A suspect baseline (the digest
		// cross-check proved it incomplete) must not convict: it would
		// frame an honest forwarder. No baseline at all (y joined this
		// round, or no handover arrived after churn re-seating) skips the
		// check, exactly as before the handover protocol.
		prev, suspect, ok := m.baseline(r, y, boundary)
		if !ok || suspect {
			continue
		}
		for _, succ := range m.n.sh.Directory.Successors(y, r) {
			ack, ok := st.succAcks[succ]
			switch {
			case ok && ack.Cmp(prev) != 0:
				m.n.report(judicial.Verdict{Round: r, Kind: VerdictWrongForward,
					Accused:  y,
					Detail:   fmt.Sprintf("ack from %v does not match obligation", succ),
					Exchange: model.ExchangeID(r, y, succ)})
			case !ok && st.succNacked[succ]:
				// Excused: the successor was nacked by its monitors.
			case !ok:
				st.markRequested(succ)
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
// no exchange was folded in).
func (m *monitorState) obligationOf(r model.Round, y model.NodeID) *big.Int {
	if per, ok := m.rounds[r]; ok {
		if st, ok := per[y]; ok {
			return m.n.hasher.FoldValue(new(big.Int), &st.obligation)
		}
	}
	return big.NewInt(1)
}

// baseline resolves the round-(r-1) obligation that y's round-r forwarding
// is verified against, with its suspect flag; ok=false means no baseline
// exists and the check must be skipped. Off an epoch boundary (or when
// this monitor already monitored y at r-1) it is the monitor's own
// accumulation; on a boundary where this monitor took over, it is the
// majority of the outgoing monitors' handovers.
func (m *monitorState) baseline(r model.Round, y model.NodeID, boundary bool) (prev *big.Int, suspect, ok bool) {
	if boundary && !m.n.sh.Directory.ContainsAt(y, r-1) {
		return nil, false, false // joined this round: no r-1 obligation at all
	}
	if !boundary || m.n.sh.Directory.IsMonitorOf(m.n.id, y, r-1) {
		if per, ok := m.rounds[r-1]; ok {
			if prevSt, ok := per[y]; ok {
				suspect = prevSt.suspect
			}
		}
		return m.obligationOf(r-1, y), suspect, true
	}
	return m.handedBaseline(r-1, y)
}

// handedBaseline returns the quorum obligation among the handover
// transfers received for (r, y): the winning (value, suspect) ballot
// must be backed by a majority of y's round-r monitor set, so one
// malicious — or merely the only one whose transfer survived a lossy
// path — outgoing monitor can never dictate a conviction baseline;
// below quorum the check is skipped, exactly the safe pre-handover
// behaviour. The vote is order-independent (counts per encoded value,
// ties broken on the smaller key), so the result never depends on
// message arrival order — byte-identity at any worker count requires
// it.
func (m *monitorState) handedBaseline(r model.Round, y model.NodeID) (*big.Int, bool, bool) {
	recs := m.handovers[r][y]
	if len(recs) == 0 {
		return nil, false, false
	}
	votes := make(map[string]int, len(recs))
	byKey := make(map[string]handoverRec, len(recs))
	for _, rec := range recs {
		k := rec.voteKey()
		votes[k]++
		byKey[k] = rec
	}
	var bestKey string
	best := -1
	for k, n := range votes {
		if n > best || (n == best && k < bestKey) {
			best, bestKey = n, k
		}
	}
	if quorum := len(m.n.sh.Directory.Monitors(y, r)) / 2; best <= quorum {
		return nil, false, false
	}
	win := byKey[bestKey]
	return win.value, win.suspect, true
}

// handover runs at CloseRound(r): when the monitor epoch rotates at r+1,
// every outgoing monitor transfers its accumulated round-r obligations to
// the monitors taking over, so the rotation round stays covered by the
// forwarding check instead of opening the pre-handover gap (a free-rider
// could skip serves exactly on rotation rounds and never be convicted).
// Membership churn landing at r+1 is not yet visible here — handover
// targets are computed from the current epoch — but churn re-seats
// monitors one node at a time (rendezvous stickiness), so the system-wide
// blind round only ever came from rotation.
func (m *monitorState) handover(r model.Round) {
	d := m.n.sh.Directory
	if d.MonitorEpoch(r+1) == d.MonitorEpoch(r) {
		return
	}
	for _, y := range m.monitored {
		if y == m.n.sh.Source {
			continue
		}
		st := m.state(r, y)
		enc, err := m.n.sh.HashParams.EncodeValue(m.obligationOf(r, y))
		if err != nil {
			continue
		}
		ho := &wire.ObligationHandover{
			Round:      r,
			From:       m.n.id,
			Monitored:  y,
			Obligation: enc,
			Suspect:    st.suspect,
		}
		var incoming []model.NodeID
		for _, peer := range d.Monitors(y, r+1) {
			if peer == m.n.id || d.IsMonitorOf(peer, y, r) {
				continue // staying monitors keep their own accumulation
			}
			incoming = append(incoming, peer)
		}
		m.n.signAndSendAll(incoming, ho)
	}
}

// onObligationHandover stores an outgoing monitor's obligation transfer.
func (m *monitorState) onObligationHandover(ho *wire.ObligationHandover) {
	v, err := m.n.sh.HashParams.DecodeValue(ho.Obligation)
	if err != nil {
		return
	}
	per, ok := m.handovers[ho.Round]
	if !ok {
		per = make(map[model.NodeID][]handoverRec)
		m.handovers[ho.Round] = per
	}
	for _, rec := range per[ho.Monitored] {
		if rec.from == ho.From {
			return // duplicate transfer
		}
	}
	per[ho.Monitored] = append(per[ho.Monitored], handoverRec{
		from: ho.From, value: v, suspect: ho.Suspect, enc: bytes.Clone(ho.Obligation),
	})
}

// blameDigestMismatch attributes a digest/obligation conflict: if the
// designated monitor for a predecessor exchange never shared it, that
// monitor is blamed (§V-B: "Monitors are then able to check each other's
// correctness"); otherwise the monitored node mis-reported.
func (m *monitorState) blameDigestMismatch(r model.Round, y model.NodeID, st *monNodeRound) {
	monitors := m.n.sh.Directory.Monitors(y, r)
	blamedMonitor := false
	for _, pred := range m.n.sh.Directory.Predecessors(y, r) {
		if st.sharesSeen[pred] {
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
		per, ok := m.rounds[r]
		if !ok {
			continue
		}
		st, ok := per[y]
		if !ok {
			continue
		}

		// Digest cross-check (§V-B): by CloseRound all reports of the
		// round have settled, so the node's self-digest must match the
		// accumulated obligation. A mismatch also poisons the round's
		// obligation as a forwarding baseline (see verify).
		if st.digest != nil && st.digest.Cmp(m.obligationOf(r, y)) != 0 {
			m.blameDigestMismatch(r, y, st)
			st.suspect = true
		}

		// Investigations exist only where verify resolved a baseline; the
		// same resolution (own accumulation or handover majority) applies
		// at judgement.
		prev, _, okBase := m.baseline(r, y, boundary)
		if !okBase {
			prev = big.NewInt(1)
		}
		// In successor order: the first of several same-key reports is
		// the one the registry keeps.
		for _, succ := range slices.Sorted(maps.Keys(st.requested)) {
			if ack, ok := st.succAcks[succ]; ok {
				// A Confirm arrived during the investigation window.
				if ack.Cmp(prev) != 0 {
					m.n.report(judicial.Verdict{Round: r, Kind: VerdictWrongForward,
						Accused:  y,
						Detail:   fmt.Sprintf("confirmed ack from %v mismatches obligation", succ),
						Exchange: model.ExchangeID(r, y, succ)})
				}
				continue
			}
			if st.succNacked[succ] {
				continue // the successor was the guilty party
			}
			ex := st.exhibits[succ]
			switch {
			case ex == nil:
				m.n.report(judicial.Verdict{Round: r, Kind: VerdictNoForward,
					Accused:  y,
					Detail:   fmt.Sprintf("no answer to AckRequest for successor %v", succ),
					Exchange: model.ExchangeID(r, y, succ)})
			case len(ex.AckBytes) > 0:
				m.judgeExhibitedAck(r, y, succ, prev, ex.AckBytes)
			case ex.Accused:
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
	ack, err := wire.UnmarshalAck(ackBytes)
	if err != nil || ack.From != succ || ack.To != y || ack.Round != r {
		m.n.report(judicial.Verdict{Round: r, Kind: VerdictNoForward,
			Accused: y, Detail: "exhibited ack is inconsistent", Exchange: xid})
		return
	}
	if m.n.sh.Suite.Verify(succ, wire.SignedPrefix(ackBytes, ack.Sig), ack.Sig) != nil {
		m.n.report(judicial.Verdict{Round: r, Kind: VerdictNoForward,
			Accused: y, Detail: "exhibited ack has a bad signature", Exchange: xid})
		return
	}
	h, err := m.n.sh.HashParams.DecodeValue(ack.H)
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

// gc drops monitor state older than the investigation horizon,
// monitorKeep rounds (which bounds what admission lets in, too).
func (m *monitorState) gc(r model.Round) {
	for rr := range m.rounds {
		if rr+monitorKeep < r {
			delete(m.rounds, rr)
		}
	}
	// Ack copies are only consulted at their own round (onAttForward and
	// onAccusation both key by the in-flight round), so they get a
	// tighter horizon than the investigation state — they are the
	// monitor's heaviest per-round buffers.
	const keepAcks = 2
	for rr := range m.ackCopies {
		if rr+keepAcks < r {
			delete(m.ackCopies, rr)
		}
	}
	for key := range m.probes {
		if key.round+monitorKeep < r {
			delete(m.probes, key)
		}
	}
	for rr := range m.handovers {
		if rr+monitorKeep < r {
			delete(m.handovers, rr)
		}
	}
}
