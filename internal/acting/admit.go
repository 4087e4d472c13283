package acting

import (
	"repro/internal/model"
	"repro/internal/pki"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file is admission: everything a node checks about a message before a
// handler does protocol work for it, declared once per kind in rules, in
// the shape of PAG's (internal/core/admit.go). Every rule runs the same
// steps in the same order: decode; bind From (and To, where the message
// names a receiver) to the envelope; the round window; the signature, over
// the bytes the message was decoded from; the sender's role at the
// message's round. A message that fails a step is dropped silently.

// rule is one kind's admission.
type rule struct {
	decode func(b []byte, s *auditScratch) (message, error)
	toMe   bool // To must be this node
	window window
	role   role
}

// window bounds a message's round by the round the node has begun.
type window uint8

const (
	thisRound window = iota
	upToNow          // a late audit request still marks what its monitor verified
	// unaudited: after this node's last audit of the accused, up to this
	// round; a complaint about an audited round could not be refuted.
	unaudited
)

// role is what a message's sender must be at the message's round.
type role uint8

const (
	predecessor role = iota // this node is one of its successors
	successor               // one of this node's successors
	monitor                 // a monitor of this node
	auditee                 // owes this node the reply to its audit of that round
	complainer              // a successor of the accused (none else requests from it) this node monitors
)

// decode decodes a signed message of type T from b, decodeReply an audit
// reply into s's Entries storage. Both read through s's reader: a fresh one,
// handed to a layout called through the interface, would escape.
func decode[T any, M interface {
	*T
	message
}](b []byte, s *auditScratch) (message, error) {
	return decodeInto(M(new(T)), b, s)
}

func decodeReply(b []byte, s *auditScratch) (message, error) { return decodeInto(&s.reply, b, s) }

func decodeInto(m message, b []byte, s *auditScratch) (message, error) {
	s.r = *wire.NewReader(b)
	m.layout(s.r.Codec())
	return m, s.r.Signature(m.head().sig)
}

// rules is admission for every AcTinG kind; a kind without a decoder is
// dropped unread.
var rules = [kindAuditBaseReply + 1]rule{
	kindPropose:        {decode: decode[proposeMsg], toMe: true, role: predecessor},
	kindRequest:        {decode: decode[requestMsg], toMe: true, role: successor},
	kindData:           {decode: decode[dataMsg], toMe: true, role: predecessor},
	kindComplaint:      {decode: decode[complaintMsg], window: unaudited, role: complainer},
	kindAuditRequest:   {decode: decode[auditReqMsg], window: upToNow, role: monitor},
	kindAuditReply:     {decode: decodeReply, role: auditee},
	kindAuditBaseReply: {decode: decodeReply, role: auditee},
}

// HandleMessage is the transport handler: it admits a delivered message and
// hands it to its kind's handler.
func (n *Node) HandleMessage(msg transport.Message) {
	if int(msg.Kind) >= len(rules) || rules[msg.Kind].decode == nil {
		return
	}
	s := auditScratches.Get().(*auditScratch)
	defer s.release()
	switch m := n.admit(&rules[msg.Kind], msg, s).(type) {
	case *proposeMsg:
		n.onPropose(m)
	case *requestMsg:
		n.onRequest(m)
	case *dataMsg:
		n.onData(m)
	case *complaintMsg:
		n.onComplaint(m)
	case *auditReqMsg:
		n.onAuditRequest(m)
	case *auditReplyMsg:
		n.onAuditReply(s)
	}
}

// admit returns the message msg carries if it passes rule r, nil otherwise.
func (n *Node) admit(r *rule, msg transport.Message, s *auditScratch) message {
	m, err := r.decode(msg.Payload, s)
	if h := m.head(); err != nil || h.from != msg.From || r.toMe && h.to != n.id ||
		!n.inWindow(r.window, m, h.round) ||
		!n.verifySig(h.from, wire.SignedPrefix(msg.Payload, *h.sig), *h.sig) || !n.holds(r.role, m, h) {
		return nil
	}
	return m
}

func (n *Node) verifySig(signer model.NodeID, body, sig []byte) bool {
	return pki.VerifyCounted(n.cfg.Suite, n.cfg.Identity.Counter(), signer, body, sig) == nil
}

func (n *Node) inWindow(w window, m message, round model.Round) bool {
	switch w {
	case upToNow:
		return round <= n.round
	case unaudited:
		st := n.audits[m.(*complaintMsg).Against]
		return st != nil && st.lastRound < round && round <= n.round
	}
	return round == n.round
}

func (n *Node) holds(ro role, m message, h header) bool {
	d := n.cfg.Directory
	isSuccessor := func(y, of model.NodeID) bool { _, ok := d.ExchangeSlot(of, y, h.round); return ok }
	switch ro {
	case predecessor:
		return isSuccessor(n.id, h.from)
	case successor:
		return isSuccessor(h.from, n.id)
	case monitor:
		return d.IsMonitorOf(h.from, n.id, h.round)
	case auditee:
		st := n.audits[h.from]
		return st != nil && st.waiting && st.pending == h.round
	}
	y := m.(*complaintMsg).Against
	return isSuccessor(h.from, y) && d.IsMonitorOf(n.id, y, h.round)
}
