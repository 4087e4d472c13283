package acting

import (
	"fmt"
	"slices"

	"repro/internal/judicial"
	"repro/internal/model"
	"repro/internal/securelog"
	"repro/internal/update"
	"repro/internal/wire"
)

// onPropose requests the updates this node misses. Each identifier is
// requested from at most one proposer per round (this single-transfer
// discipline is why AcTinG stays near the stream rate, §VII-B).
func (n *Node) onPropose(p *proposeMsg) {
	n.logIDs(securelog.EntryRecv, p.From, "PROPOSE", p.IDs)

	var want []model.UpdateID
	for _, id := range p.IDs {
		if !n.store.Has(id) && !n.requested[id] {
			n.requested[id] = true
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
func (n *Node) onRequest(req *requestMsg) {
	n.logIDs(securelog.EntryRecv, req.From, "REQ", req.IDs)

	if n.cfg.Behavior.FreeRide {
		return // save the upload; the audit or a complaint will tell
	}
	data := &dataMsg{Round: n.round, From: n.id, To: req.From,
		Updates: make([]update.Update, 0, len(req.IDs))}
	served := make([]model.UpdateID, 0, len(req.IDs))
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
}

// onData stores verified updates and schedules them for next round's
// proposal.
func (n *Node) onData(d *dataMsg) {
	got := make([]model.UpdateID, 0, len(d.Updates))
	w := wire.GetWriter()
	defer w.Release()
	for i := range d.Updates {
		u := &d.Updates[i]
		if u.ID.Stream != 0 || !n.verifySig(n.cfg.Source, w.Canonical(u), u.SrcSig) {
			return
		}
		// u aliases the delivered payload: the store keeps the session's
		// shared copy (or a private clone without an interner).
		if n.store.Add(n.cfg.Intern.Canonical(*u), n.round, 1) {
			n.stats.UpdatesReceived++
			n.freshNext[u.ID] = true
		}
		got = append(got, u.ID)
	}
	n.logIDs(securelog.EntryRecv, d.From, "DATA", got)
}

// onComplaint stores a peer complaint for the next audit of the accused,
// at most one per round and complainer: the backlog holds what the
// accused's successors filed since its last audit, however often they send.
func (n *Node) onComplaint(c *complaintMsg) {
	dup := func(k complaint) bool { return k.round == c.Round && k.from == c.From }
	if st := n.audits[c.Against]; !slices.ContainsFunc(st.complaints, dup) {
		st.complaints = append(st.complaints, complaint{round: c.Round, from: c.From, ids: c.IDs})
	}
}

// onAuditRequest drops the log prefix every current monitor has verified,
// then answers with the suffix past the requested seq (unless refusing) —
// or, to a request from below the base, with the retained suffix and the
// base. A log-tampering node rewrites the first entry it sends — which the
// chain verification will expose.
func (n *Node) onAuditRequest(req *auditReqMsg) {
	n.retain(req.From, req.SinceSeq, n.cfg.Directory.Monitors(n.id, n.round))
	if n.cfg.Behavior.RefuseAudit {
		return
	}
	from := max(req.SinceSeq, n.log.Base())
	if n.cfg.Behavior.TamperLog && n.log.HeadSeq() > from {
		n.log.Tamper(from+1, []byte("rewritten history"))
	}
	// The entries are encoded straight from the log.
	reply := &auditReplyMsg{Round: n.round, From: n.id, Entries: n.log.Suffix(from)}
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

// onAuditReply verifies the fetched log suffix, decoded into s:
// chain integrity, proposal coverage, serve compliance and outstanding
// complaints.
func (n *Node) onAuditReply(s *auditScratch) {
	reply, y, r := &s.reply, s.reply.From, s.reply.Round
	st := n.audits[y]
	st.waiting = false
	n.stats.AuditsPerformed++

	// The chain runs on from what this monitor last verified — or, when y
	// has since dropped that prefix, from y's base, which the monitor
	// adopts the way a first audit adopts the genesis chain. A base at or
	// below the verified seq would let y rewrite audited history.
	seq, head, lastRound := st.lastSeq, st.lastHead, st.lastRound
	if b := reply.Base; b != nil {
		if b.Seq <= seq {
			n.report(judicial.Verdict{Round: r, Kind: VerdictTamperedLog, Accused: y,
				Detail: fmt.Sprintf("log base %d not past audited seq %d", b.Seq, seq)})
			return
		}
		seq, head, lastRound = b.Seq, b.Hash, b.Round
	}
	if err := securelog.VerifyChain(seq, head, reply.Entries); err != nil {
		n.report(judicial.Verdict{Round: r, Kind: VerdictTamperedLog, Accused: y,
			Detail: err.Error()})
		return
	}

	n.judge(s, y, lastRound, r, reply.Entries, st.complaints)
	st.complaints = nil

	if len(reply.Entries) > 0 {
		last := reply.Entries[len(reply.Entries)-1]
		seq, head = last.Seq, last.Hash
	}
	st.lastSeq, st.lastHead, st.lastRound = seq, head, r
}
