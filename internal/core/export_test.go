package core

import (
	"reflect"
	"slices"

	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// StaleSlotsHoldContent reports whether, between waves, the node still
// references content it should have let go: any slot past the length of
// one of its round lists — the forward set, next round's, the exchange
// records, the monitor's records and their peer records and Ack copies —
// or any record on the monitor's free list holding an update's payload,
// signature or embedding, a signed message, or a value or evidence of its
// round; or any storage the node decodes or builds messages in — its
// admission shells, its outgoing messages, its live-entry
// scratch — still holding a view or a stale list entry.
func (n *Node) StaleSlotsHoldContent() bool {
	item := func(it *pendingItem) bool { return it.upd.Payload != nil || it.upd.SrcSig != nil || it.embed != nil }
	if staleHolds(n.send.items, item) || staleHolds(n.next, item) ||
		staleHolds(n.send.succs, func(ex *sendExchange) bool { return ex.attBytes != nil || ex.ackBytes != nil }) ||
		staleHolds(n.recv.preds, func(ex *recvExchange) bool { return ex.attBytes != nil || ex.ackBytes != nil }) {
		return true
	}
	peer := func(p *monPeer) bool { return *p != monPeer{} }
	ack := func(a *monAck) bool { return a.succ != model.NoNode || a.h.Sign() != 0 }
	record := func(st *monNodeRound) bool {
		return st.y != model.NoNode || st.hasDigest || st.digest.Sign() != 0 || len(st.peers) > 0 || len(st.acks) > 0
	}
	staleRecord := func(st **monNodeRound) bool {
		return *st != nil && (record(*st) || staleHolds((*st).peers, peer) || staleHolds((*st).acks, ack))
	}
	for i := range n.mon.copies {
		if staleHolds(n.mon.copies[i].index, func(k *ackCopy) bool { return k.b != nil }) {
			return true
		}
	}
	for _, mr := range n.mon.rounds {
		if staleHolds(mr.nodes, staleRecord) {
			return true
		}
		for _, st := range mr.nodes {
			if staleHolds(st.peers, peer) || staleHolds(st.acks, ack) {
				return true
			}
		}
	}
	for _, mr := range n.mon.free {
		if len(mr.nodes) > 0 || staleHolds(mr.nodes, staleRecord) {
			return true
		}
	}
	out := n.out
	out.values = nil // the node's own encodings, not views
	return holdsView(reflect.ValueOf(&n.shells).Elem()) || holdsView(reflect.ValueOf(&out).Elem()) ||
		slices.ContainsFunc(n.live[:cap(n.live)], func(e *update.Entry) bool { return e != nil })
}

// holdsView reports whether v, emptied storage for messages, is not: a
// byte field that is not nil (a view of some input), a list entry up to
// its array's capacity that is not zero, or any other field that is not
// zero.
func holdsView(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if holdsView(v.Field(i)) {
				return true
			}
		}
		return false
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return !v.IsNil()
		}
		all := v.Slice(0, v.Cap())
		for i := range all.Len() {
			if holdsView(all.Index(i)) {
				return true
			}
		}
		return v.Len() > 0
	}
	return !v.IsZero()
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
// for — in its per-round records and ack copies, or probes — in ascending
// order.
func (n *Node) MonitorRounds() []model.Round {
	var rs []model.Round
	for r := range n.mon.rounds {
		rs = append(rs, r)
	}
	for _, c := range n.mon.copies {
		if len(c.index) > 0 {
			rs = append(rs, c.r)
		}
	}
	for k := range n.mon.probes {
		rs = append(rs, k.round)
	}
	slices.Sort(rs)
	return slices.Compact(rs)
}

// AckCopies returns how many Ack copies of round r the node's monitor
// role keeps.
func (n *Node) AckCopies(r model.Round) int {
	k := 0
	for _, c := range n.mon.copies {
		if c.r == r {
			k += len(c.index)
		}
	}
	return k
}

// AckCopyBytes returns how many bytes the node's monitor role holds for
// the Ack copies of round r.
func (n *Node) AckCopyBytes(r model.Round) int {
	k := 0
	for _, c := range n.mon.copies {
		if c.r == r {
			k += len(c.buf)
		}
	}
	return k
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
	if int(msg.Kind) >= len(rules) || rules[msg.Kind].shell == nil {
		return false
	}
	r := &rules[msg.Kind]
	in := inbound{msg: msg, round: n.round}
	defer in.release()
	if !n.admit(r, &in) {
		return false
	}
	if relay, ok := in.m.(*wire.AckRelay); ok {
		ack := carried(relay.From, relay.Round, relay.AckBytes)
		defer ack.release()
		return n.admit(&relayedAck, &ack)
	}
	return true
}

// Decodes reports whether payload is a message of a kind the node admits
// that passes the kind's decoder (a sealed kind opened with the node's key
// first).
func (n *Node) Decodes(kind uint8, payload []byte) bool {
	if int(kind) >= len(rules) || rules[kind].shell == nil {
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
	m := rules[kind].shell(&n.shells)
	defer m.Decode(nil)
	return m.Decode(payload) == nil
}
