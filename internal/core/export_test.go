package core

import (
	"slices"

	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/wire"
)

// StaleSlotsHoldContent reports whether any slot past the length of one of
// the node's round lists — the forward set, next round's, the exchange
// records and the monitor's peer records — still references an update's
// payload, signature or embedding, or a signed message.
func (n *Node) StaleSlotsHoldContent() bool {
	item := func(it *pendingItem) bool { return it.upd.Payload != nil || it.upd.SrcSig != nil || it.embed != nil }
	if staleHolds(n.send.items, item) || staleHolds(n.next, item) ||
		staleHolds(n.send.succs, func(ex *sendExchange) bool { return ex.attBytes != nil || ex.ackBytes != nil }) ||
		staleHolds(n.recv.preds, func(ex *recvExchange) bool { return ex.attBytes != nil || ex.ackBytes != nil }) {
		return true
	}
	for _, per := range n.mon.rounds {
		for _, st := range per {
			if staleHolds(st.peers, func(p *monPeer) bool { return p.ack != nil || p.exhibit != nil }) {
				return true
			}
		}
	}
	return false
}

// staleHolds reports whether holds is true of a slot of s past its length.
func staleHolds[T any](s []T, holds func(*T) bool) bool {
	all := s[:cap(s)]
	for i := len(s); i < len(all); i++ {
		if holds(&all[i]) {
			return true
		}
	}
	return false
}

// MonitorRounds returns every round the node's monitor role holds state
// for — in its per-round records, ack copies or probes — in ascending
// order.
func (n *Node) MonitorRounds() []model.Round {
	var rs []model.Round
	for r := range n.mon.rounds {
		rs = append(rs, r)
	}
	for r := range n.mon.ackCopies {
		rs = append(rs, r)
	}
	for k := range n.mon.probes {
		rs = append(rs, k.round)
	}
	slices.Sort(rs)
	return slices.Compact(rs)
}

// MonitorKeep is how many rounds back a monitor message may be about.
const MonitorKeep = monitorKeep

// Deferred returns how many early messages the node holds for replay.
func (n *Node) Deferred() int { return len(n.deferred) }

// PrimeBits returns the width of every exchange prime of the session.
func (n *Node) PrimeBits() int { return n.sh.primeBits }

// DesignatedMonitor is the monitor of a node that a predecessor's exchange
// with it is reported to in round r.
var DesignatedMonitor = designatedMonitor

// Admit runs a delivered message through its kind's admission and no
// further: it reports whether the message would reach its handler, after
// deferring, dropping or reporting it as HandleMessage does. An AckRelay
// is admitted with the Ack it carries, whose round is its window.
func (n *Node) Admit(msg transport.Message) bool {
	if int(msg.Kind) >= len(rules) || rules[msg.Kind].decode == nil {
		return false
	}
	r := &rules[msg.Kind]
	in := inbound{msg: msg, round: n.round}
	if r.sealed {
		in.w = wire.GetWriter()
		defer in.w.Release()
	}
	if !n.admit(r, &in) {
		return false
	}
	if relay, ok := in.m.(*wire.AckRelay); ok {
		ack := carried(relay.From, relay.Round, relay.AckBytes)
		return n.admit(&relayedAck, &ack)
	}
	return true
}

// Decodes reports whether payload is a message of a kind the node admits
// that passes the kind's decoder (a sealed kind opened with the node's key
// first).
func (n *Node) Decodes(kind uint8, payload []byte) bool {
	if int(kind) >= len(rules) || rules[kind].decode == nil {
		return false
	}
	if rules[kind].sealed {
		w := wire.GetWriter()
		defer w.Release()
		var err error
		if payload, err = w.Open(n.cfg.Identity, payload); err != nil {
			return false
		}
	}
	_, err := rules[kind].decode(payload)
	return err == nil
}
