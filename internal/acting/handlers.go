package acting

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/pki"
	"repro/internal/securelog"
	"repro/internal/transport"
	"repro/internal/wire"
)

// HandleMessage is the transport handler.
func (n *Node) HandleMessage(msg transport.Message) {
	switch msg.Kind {
	case kindPropose:
		n.onPropose(msg)
	case kindRequest:
		n.onRequest(msg)
	case kindData:
		n.onData(msg)
	case kindComplaint:
		n.onComplaint(msg)
	case kindAuditRequest:
		n.onAuditRequest(msg)
	case kindAuditReply, kindAuditBaseReply:
		n.onAuditReply(msg)
	}
}

func (n *Node) verifySig(signer model.NodeID, body, sig []byte) bool {
	return pki.VerifyCounted(n.cfg.Suite, n.cfg.Identity.Counter(), signer, body, sig) == nil
}

// verifySigned checks a decoded message's trailing signature over the
// prefix of the payload it was decoded from (see wire.SignedPrefix).
func (n *Node) verifySigned(signer model.NodeID, payload, sig []byte) bool {
	return n.verifySig(signer, wire.SignedPrefix(payload, sig), sig)
}

// onPropose requests the updates this node misses. Each identifier is
// requested from at most one proposer per round (this single-transfer
// discipline is why AcTinG stays near the stream rate, §VII-B).
func (n *Node) onPropose(msg transport.Message) {
	p, err := unmarshalPropose(msg.Payload)
	if err != nil || p.From != msg.From || p.To != n.id || p.Round != n.round {
		return
	}
	if !n.verifySigned(p.From, msg.Payload, p.Sig) {
		return
	}
	n.logIDs(securelog.EntryRecv, p.From, "PROPOSE", p.IDs)

	already := make(map[model.UpdateID]bool)
	for _, ids := range n.requestedFrom {
		for _, id := range ids {
			already[id] = true
		}
	}
	var want []model.UpdateID
	for _, id := range p.IDs {
		if !n.store.Has(id) && !already[id] {
			want = append(want, id)
		}
	}
	if len(want) == 0 {
		return
	}
	n.requestedFrom[p.From] = append(n.requestedFrom[p.From], want...)
	req := &requestMsg{Round: n.round, From: n.id, To: p.From, IDs: want}
	n.signAndSend(p.From, kindRequest, req)
	n.logIDs(securelog.EntrySend, p.From, "REQ", want)
}

// onRequest serves the requested updates (unless free-riding) and logs both
// sides of the interaction.
func (n *Node) onRequest(msg transport.Message) {
	req, err := unmarshalRequest(msg.Payload)
	if err != nil || req.From != msg.From || req.To != n.id || req.Round != n.round {
		return
	}
	if !n.verifySigned(req.From, msg.Payload, req.Sig) {
		return
	}
	n.logIDs(securelog.EntryRecv, req.From, "REQ", req.IDs)

	if n.cfg.Behavior.FreeRide {
		return // save the upload; the audit or a complaint will tell
	}
	data := &dataMsg{Round: n.round, From: n.id, To: req.From}
	var served []model.UpdateID
	for _, id := range req.IDs {
		if e := n.store.Get(id); e != nil {
			data.Updates = append(data.Updates, e.Update)
			served = append(served, id)
		}
	}
	if len(served) == 0 {
		return
	}
	n.signAndSend(req.From, kindData, data)
	n.logIDs(securelog.EntrySend, req.From, "DATA", served)
	if n.servedTo[req.From] == nil {
		n.servedTo[req.From] = make(map[model.UpdateID]bool)
	}
	for _, id := range served {
		n.servedTo[req.From][id] = true
	}
}

// onData stores verified updates and schedules them for next round's
// proposal.
func (n *Node) onData(msg transport.Message) {
	d, err := unmarshalData(msg.Payload)
	if err != nil || d.From != msg.From || d.To != n.id || d.Round != n.round {
		return
	}
	if !n.verifySigned(d.From, msg.Payload, d.Sig) {
		return
	}
	got := make([]model.UpdateID, 0, len(d.Updates))
	w := wire.GetWriter()
	defer w.Release()
	for i := range d.Updates {
		u := &d.Updates[i]
		src, ok := n.streamSource(u.ID.Stream)
		if !ok || !n.verifySig(src, w.Canonical(u), u.SrcSig) {
			return
		}
		// u aliases the delivered payload: the store keeps the session's
		// shared copy (or a private clone without an interner).
		if n.store.Add(n.cfg.Intern.Canonical(*u), n.round, 1, true) {
			n.stats.UpdatesReceived++
			n.freshNext[u.ID] = true
		}
		got = append(got, u.ID)
	}
	n.logIDs(securelog.EntryRecv, d.From, "DATA", got)
}

func (n *Node) streamSource(s model.StreamID) (model.NodeID, bool) {
	idx := int(s)
	if idx < 0 || idx >= len(n.cfg.Sources) {
		return model.NoNode, false
	}
	return n.cfg.Sources[idx], true
}

// onComplaint stores a peer complaint for the next audit of the accused.
func (n *Node) onComplaint(msg transport.Message) {
	c, err := unmarshalComplaint(msg.Payload)
	if err != nil || c.From != msg.From {
		return
	}
	if !n.verifySigned(c.From, msg.Payload, c.Sig) {
		return
	}
	st, ok := n.audits[c.Against]
	if !ok {
		return // not a node we monitor
	}
	st.complaints = append(st.complaints, complaint{round: c.Round, from: c.From, ids: c.IDs})
}

// onAuditRequest drops the log prefix every current monitor has verified,
// then answers with the suffix past the requested seq (unless refusing) —
// or, to a request from below the base, with the retained suffix and the
// base. A log-tampering node rewrites the first entry it sends — which the
// chain verification will expose.
func (n *Node) onAuditRequest(msg transport.Message) {
	req, err := unmarshalAuditReq(msg.Payload)
	if err != nil || req.From != msg.From {
		return
	}
	if !n.verifySigned(req.From, msg.Payload, req.Sig) {
		return
	}
	monitors := n.cfg.Directory.Monitors(n.id, n.round)
	if !slices.Contains(monitors, req.From) {
		return
	}
	n.retain(req.From, req.SinceSeq, monitors)
	if n.cfg.Behavior.RefuseAudit {
		return
	}
	from := max(req.SinceSeq, n.log.Base())
	if n.cfg.Behavior.TamperLog && n.log.HeadSeq() > from {
		n.log.Tamper(from+1, []byte("rewritten history"))
	}
	reply := &auditReplyMsg{
		Round:   n.round,
		From:    n.id,
		Entries: n.log.Suffix(from), // encoded straight from the log
	}
	if req.SinceSeq < from {
		reply.Base = &logBase{Seq: from, Round: n.log.BaseRound(), Hash: n.log.BaseHash()}
	}
	n.signAndSend(req.From, reply.kind(), reply)
}

// retain records that monitor m has verified this node's log through since
// (capped at the head: a monitor cannot have verified what was never
// written) and drops the prefix that every current monitor has verified.
// A monitor's lastSeq only advances on a chain-verified audit, so since is
// exactly what it verified. Nothing is dropped while a current monitor has
// yet to audit, so a crashed or failing monitor stalls truncation but never
// loses an entry another monitor still needs; records of monitors that are
// no longer current are forgotten.
func (n *Node) retain(m model.NodeID, since uint64, monitors []model.NodeID) {
	n.verified[m] = max(n.verified[m], min(since, n.log.HeadSeq()))
	through := n.log.HeadSeq()
	for _, mon := range monitors {
		through = min(through, n.verified[mon])
	}
	n.log.TruncateThrough(through)
	for mon := range n.verified {
		if !slices.Contains(monitors, mon) {
			delete(n.verified, mon)
		}
	}
}

// onAuditReply verifies the fetched log suffix: chain integrity, proposal
// coverage, serve compliance and outstanding complaints.
func (n *Node) onAuditReply(msg transport.Message) {
	reply, err := unmarshalAuditReply(msg.Payload)
	if err != nil || reply.From != msg.From {
		return
	}
	if !n.verifySigned(reply.From, msg.Payload, reply.Sig) {
		return
	}
	st, ok := n.audits[reply.From]
	if !ok || !st.waiting {
		return
	}
	st.waiting = false
	n.stats.AuditsPerformed++
	y := reply.From
	r := reply.Round

	// The chain runs on from what this monitor last verified — or, when y
	// has since dropped that prefix, from y's base, which the monitor
	// adopts the way a first audit adopts the genesis chain. A base at or
	// below the verified seq would let y rewrite audited history.
	seq, head, lastRound := st.lastSeq, st.lastHead, st.lastRound
	if b := reply.Base; b != nil {
		if b.Seq <= seq {
			n.report(Verdict{Round: r, Kind: VerdictTamperedLog, Accused: y,
				Detail: fmt.Sprintf("log base %d not past audited seq %d", b.Seq, seq)})
			return
		}
		seq, head, lastRound = b.Seq, b.Hash, b.Round
	}
	if err := securelog.VerifyChain(seq, head, reply.Entries); err != nil {
		n.report(Verdict{Round: r, Kind: VerdictTamperedLog, Accused: y,
			Detail: err.Error()})
		return
	}

	// Index the suffix: proposals and served data per (round, peer).
	proposed := make(map[model.Round]map[model.NodeID]bool)
	served := make(map[model.Round]map[model.NodeID]map[model.UpdateID]bool)
	type reqEntry struct {
		round model.Round
		peer  model.NodeID
		ids   []model.UpdateID
	}
	var requestsIn []reqEntry
	for _, e := range reply.Entries {
		tag, ids, err := decodeIDList(e.Content)
		if err != nil {
			continue
		}
		switch {
		case e.Type == securelog.EntrySend && tag == "PROPOSE":
			if proposed[e.Round] == nil {
				proposed[e.Round] = make(map[model.NodeID]bool)
			}
			proposed[e.Round][e.Peer] = true
		case e.Type == securelog.EntrySend && tag == "DATA":
			if served[e.Round] == nil {
				served[e.Round] = make(map[model.NodeID]map[model.UpdateID]bool)
			}
			if served[e.Round][e.Peer] == nil {
				served[e.Round][e.Peer] = make(map[model.UpdateID]bool)
			}
			for _, id := range ids {
				served[e.Round][e.Peer][id] = true
			}
		case e.Type == securelog.EntryRecv && tag == "REQ":
			requestsIn = append(requestsIn, reqEntry{round: e.Round, peer: e.Peer, ids: ids})
		}
	}

	// Proposal coverage: a proposal logged to every successor of every
	// audited round — those after the base's on a first audit from it.
	for rr := lastRound + 1; rr <= r; rr++ {
		for _, succ := range n.cfg.Directory.Successors(y, rr) {
			if !proposed[rr][succ] {
				n.report(Verdict{Round: r, Kind: VerdictMissingPropose, Accused: y,
					Detail: fmt.Sprintf("no proposal to %v at %v", succ, rr)})
			}
		}
	}

	// Serve compliance: every logged incoming request answered in-round.
	for _, req := range requestsIn {
		for _, id := range req.ids {
			if !served[req.round][req.peer][id] {
				n.report(Verdict{Round: r, Kind: VerdictUnservedRequest, Accused: y,
					Detail: fmt.Sprintf("request for %v from %v unanswered at %v",
						id, req.peer, req.round)})
			}
		}
	}

	// Complaints: even if the node omitted the request from its log, the
	// peer's signed complaint demands proof of service.
	for _, c := range st.complaints {
		for _, id := range c.ids {
			if !served[c.round][c.from][id] {
				n.report(Verdict{Round: r, Kind: VerdictUnservedRequest, Accused: y,
					Detail: fmt.Sprintf("complaint by %v for %v at %v unrefuted",
						c.from, id, c.round)})
			}
		}
	}
	st.complaints = nil

	if len(reply.Entries) > 0 {
		last := reply.Entries[len(reply.Entries)-1]
		seq, head = last.Seq, last.Hash
	}
	st.lastSeq, st.lastHead, st.lastRound = seq, head, r
}
