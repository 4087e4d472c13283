package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"repro/internal/hhash"
	"repro/internal/judicial"
	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// This file is admission: everything a node checks about a message before a
// handler does protocol work for it, declared once per kind in rules.
// Every rule runs the same steps in the same order:
//
//  1. mute: a Behavior flag makes the node ignore the kind unread;
//  2. open (sealed kinds), decode into the node's shell for the rule, and
//     bind From (and To) to the envelope;
//  3. the round window of the exchange kinds, which defers or drops;
//  4. the signature, over the bytes it was decoded from;
//  5. the round window of the monitor kinds, which drops;
//  6. the rule's checks — the sender's role at the message's round and the
//     bounds on what it carries — in the rule's order.
//
// A failed step drops the message silently or raises BadMessage, as the
// rule says; a handler is handed only what passed them all.

// rule is one kind's admission.
type rule struct {
	// name ends the detail of a bad signature's verdict ("bad signature on
	// name"); a rule without one checks the signature quietly.
	name string
	// malformed is the BadMessage detail for a message that fails to decode
	// or bind ("undecryptable name" for one that fails to open); without
	// one, such a message is dropped silently.
	malformed string
	shell     func(*shells) shell // what the rule decodes into
	sealed    bool                // encrypted to the receiver: opened before decoding
	bind      binding
	window    window
	mute      Behavior // the flags under which the node ignores the kind
	checks    []check
}

// shell is a node-owned message a rule decodes every arrival into
// (wire's decoding in place), as admission reads it.
type shell interface {
	Kind() uint8
	Head() wire.Head
	Decode([]byte) error
}

// shells holds a node's decoded messages, one per rule, nested rules
// included; AckForward and Confirm, one decoder under two kinds, share
// one. No two uses of a shell overlap: a handler reaches a nested rule,
// never its own. A shell is emptied when its handler returns
// (inbound.release), so no view of a payload outlives its wave, and its
// lists keep their arrays for the next arrival. The Serve rules borrow
// theirs from servePool instead.
type shells struct {
	keyRequest                           wire.KeyRequest
	keyResponse                          wire.KeyResponse
	attestation, probedAtt, forwardedAtt wire.Attestation
	ack, ackCopy, relayedAck             wire.Ack
	attForward                           wire.AttForward
	hashShare                            wire.HashShare
	ackRelay                             wire.AckRelay
	nodeDigest                           wire.NodeDigest
	accusation                           wire.Accusation
	probe                                wire.Probe
	nack                                 wire.Nack
	ackRequest                           wire.AckRequest
	ackExhibit                           wire.AckExhibit
}

// servePool lends the Serves a node decodes and builds. A Serve's lists
// grow with the round's forward set, to a few KB, and a node holds a Serve
// only while it handles or seals one, a few times a round: lists kept per
// node would hold that much for each of them between times.
var servePool = sync.Pool{New: func() any { return new(wire.Serve) }}

// borrowServe is the Serve rules' shell.
func borrowServe(*shells) shell { return servePool.Get().(*wire.Serve) }

// binding ties a message to its envelope: the transport envelope, or the
// message that carried it.
type binding uint8

const (
	fromSender    binding = iota // From is the envelope's sender
	toReceiver                   // From is the envelope's sender, To this node
	toSender                     // To is the envelope's sender, Round its round
	relayMonitors                // the relayer monitors From, this node monitors To
)

// window bounds a message's round by the round the node has begun.
type window uint8

const (
	anyRound      window = iota // none of its own: the envelope's binds it
	exchangeRound               // that round; the next one, or any before the first, is deferred
	thisRound                   // that round, once one is begun
	monitorRound                // [round − monitorKeep, round + 1]; any before the first
)

// monitorKeep is how many rounds back a monitor keeps state (monitorState.gc),
// and so the oldest round a monitor message may still be about.
const monitorKeep = 4

// The Behavior flags under which a node ignores a kind (rule.mute).
var (
	refuseReceive = Behavior{RefuseReceive: true}
	silentMonitor = Behavior{SilentMonitor: true}
	ignoreProbes  = Behavior{IgnoreProbes: true, RefuseReceive: true}
)

// check is one condition on an accepted message: a role its sender must
// hold at the message's round, or a bound on a field.
type check uint8

const (
	fromPredecessor   check = iota // the sender is a predecessor of this node
	fromAsked                      // a successor asked for a prime that has not answered
	primeWidth                     // the prime has exactly the session's width
	servedItems                    // multiplicities in [1, maxServedCount], stream 0 only
	kPrevWidth                     // K(R−1) no wider than the sender's primes of R−1
	remainderWidth                 // the remainder no wider than the sender's other primes
	fromMonitor                    // the sender monitors this node
	fromMonitored                  // this node monitors the sender
	fromCoMonitor                  // sender and this node both monitor the share's node
	fromDesignated                 // the sender is the exchange's designated monitor
	realExchange                   // the exchange a share or forwarded attestation names is one of its round
	toDesignated                   // this node is the forwarded exchange's designated monitor
	nackMonitors                   // the sender monitors the accused, this node the accuser
	accusedMonitored               // this node monitors the accused
	fromPredOfAccused              // the sender is a predecessor of the accused
)

// serveChecks bound a Serve's items and K(R−1) before asking who sent it.
var serveChecks = []check{servedItems, kPrevWidth, fromPredecessor}

// rules is admission for every wire kind a node receives; a kind without a
// decoder is unknown.
var rules = [maxWireKind + 1]rule{
	wire.KindKeyRequest: {name: "KeyRequest", malformed: "malformed KeyRequest", shell: func(s *shells) shell { return &s.keyRequest },
		bind: toReceiver, window: exchangeRound, mute: refuseReceive, checks: []check{fromPredecessor}},
	wire.KindKeyResponse: {name: "KeyResponse", malformed: "malformed KeyResponse", shell: func(s *shells) shell { return &s.keyResponse },
		sealed: true, bind: toReceiver, window: thisRound, checks: []check{fromAsked, primeWidth}},
	wire.KindServe: {name: "Serve", malformed: "malformed Serve", shell: borrowServe,
		sealed: true, bind: toReceiver, window: thisRound, mute: refuseReceive, checks: serveChecks},
	wire.KindAttestation: {name: "Attestation", malformed: "malformed Attestation", shell: func(s *shells) shell { return &s.attestation },
		bind: toReceiver, window: exchangeRound, mute: refuseReceive},
	wire.KindAck: {name: "Ack", malformed: "malformed Ack", shell: func(s *shells) shell { return &s.ack },
		bind: toReceiver, window: exchangeRound},
	wire.KindAckCopy: {name: "AckCopy", shell: func(s *shells) shell { return &s.ackCopy },
		window: monitorRound, mute: silentMonitor, checks: []check{fromMonitored}},
	wire.KindAttForward: {name: "AttForward", shell: func(s *shells) shell { return &s.attForward },
		sealed: true, window: monitorRound, mute: silentMonitor, checks: []check{fromMonitored, remainderWidth}},
	wire.KindHashShare: {name: "HashShare", shell: func(s *shells) shell { return &s.hashShare },
		window: monitorRound, mute: silentMonitor, checks: []check{fromCoMonitor, fromDesignated, realExchange}},
	// An AckRelay's window is its Ack's (relayedAck).
	wire.KindAckForward: {name: "AckRelay", shell: func(s *shells) shell { return &s.ackRelay }, mute: silentMonitor},
	wire.KindConfirm:    {name: "AckRelay", shell: func(s *shells) shell { return &s.ackRelay }, mute: silentMonitor},
	wire.KindNodeDigest: {name: "NodeDigest", shell: func(s *shells) shell { return &s.nodeDigest },
		window: monitorRound, mute: silentMonitor, checks: []check{fromMonitored}},
	wire.KindAccusation: {name: "Accusation", shell: func(s *shells) shell { return &s.accusation },
		window: monitorRound, mute: silentMonitor, checks: []check{accusedMonitored, fromPredOfAccused}},
	wire.KindProbe: {name: "Probe", shell: func(s *shells) shell { return &s.probe },
		window: exchangeRound, mute: ignoreProbes, checks: []check{fromMonitor}},
	wire.KindNack: {name: "Nack", shell: func(s *shells) shell { return &s.nack },
		window: monitorRound, mute: silentMonitor, checks: []check{nackMonitors}},
	wire.KindAckRequest: {name: "AckRequest", shell: func(s *shells) shell { return &s.ackRequest },
		window: exchangeRound, checks: []check{fromMonitor}},
	wire.KindAckExhibit: {name: "AckExhibit", shell: func(s *shells) shell { return &s.ackExhibit },
		window: monitorRound, mute: silentMonitor, checks: []check{fromMonitored}},
}

// The messages that arrive inside another are admitted when they arrive,
// by rules of their own whose envelope is the enclosing message: a Probe's
// Serve and Attestation, which its origin must have sent this node; an
// AttForward's Attestation, which must be to its sender; an AckRelay's Ack.
// A Probe's are checked quietly: its monitor relays them as the accuser
// handed them over, the Serve sealed to this node, so a bad signature on
// one is the monitor's fault or the accuser's, and this node cannot tell
// which.
var (
	probedServe = rule{shell: borrowServe,
		sealed: true, bind: toReceiver, window: thisRound, checks: serveChecks}
	probedAttestation    = rule{shell: func(s *shells) shell { return &s.probedAtt }, bind: toReceiver, window: thisRound}
	forwardedAttestation = rule{name: "forwarded Attestation", malformed: "AttForward with inconsistent attestation",
		shell: func(s *shells) shell { return &s.forwardedAtt }, bind: toSender, checks: []check{toDesignated, realExchange}}
	relayedAck = rule{name: "relayed Ack", shell: func(s *shells) shell { return &s.relayedAck }, bind: relayMonitors, window: monitorRound}
)

// inbound is one message under admission, and what admission hands on.
type inbound struct {
	// msg is the envelope as delivered; for a nested message, the
	// enclosing message's sender and the nested bytes.
	msg transport.Message
	// round is the envelope's: the node's own for a delivered message, the
	// enclosing message's for a nested one.
	round model.Round
	w     *wire.Writer // where a sealed message opens, until release
	body  []byte       // the bytes the signature covers
	m     shell        // the rule's shell, once decoded into
	h     wire.Head
	key   hhash.Key // the prime, K(R−1) or remainder a width check parsed
}

// carried is the inbound of a message nested in one from `from` of round r.
func carried(from model.NodeID, r model.Round, b []byte) inbound {
	return inbound{msg: transport.Message{From: from, Payload: b}, round: r}
}

// release empties the shell in was decoded into, returning a borrowed one
// to its pool, and returns its opened plaintext to the pool: nothing the
// handler was handed survives it.
func (in *inbound) release() {
	if in.m != nil {
		_ = in.m.Decode(nil) // decoding nothing empties a shell
		if srv, ok := in.m.(*wire.Serve); ok {
			servePool.Put(srv)
		}
	}
	if in.w != nil {
		in.w.Release()
	}
	*in = inbound{}
}

// handle admits a delivered message and hands it to its kind's handler.
func (n *Node) handle(msg transport.Message) {
	if int(msg.Kind) >= len(rules) || rules[msg.Kind].shell == nil {
		n.report(judicial.Verdict{Round: n.round, Kind: VerdictBadMessage, Accused: msg.From,
			Detail: fmt.Sprintf("unknown kind %d", msg.Kind)})
		return
	}
	r := &rules[msg.Kind]
	in := inbound{msg: msg, round: n.round}
	defer in.release()
	if !n.admit(r, &in) {
		return
	}
	switch msg.Kind {
	case wire.KindKeyRequest:
		n.onKeyRequest(in.m.(*wire.KeyRequest))
	case wire.KindKeyResponse:
		// Decoding proved the tags strictly ascending: they are a BufferMap.
		resp := in.m.(*wire.KeyResponse)
		n.serve(resp.From, n.send.exchange(resp.From), in.key, update.BufferMap(resp.BufferMap))
	case wire.KindServe:
		n.processServe(in.m.(*wire.Serve), in.key)
	case wire.KindAttestation:
		n.onAttestation(in.m.(*wire.Attestation), in.body)
	case wire.KindAck:
		n.onAck(in.m.(*wire.Ack), in.body)
	case wire.KindAckCopy:
		n.mon.onAckCopy(in.m.(*wire.Ack), in.body)
	case wire.KindAttForward:
		n.mon.onAttForward(in.m.(*wire.AttForward), in.key)
	case wire.KindHashShare:
		n.mon.onHashShare(in.m.(*wire.HashShare))
	case wire.KindAckForward, wire.KindConfirm:
		relay := in.m.(*wire.AckRelay)
		n.mon.acceptRelayedAck(relay.From, relay.Round, relay.AckBytes)
	case wire.KindNodeDigest:
		n.mon.onNodeDigest(in.m.(*wire.NodeDigest))
	case wire.KindAccusation:
		n.mon.onAccusation(in.m.(*wire.Accusation))
	case wire.KindProbe:
		n.onProbe(in.m.(*wire.Probe))
	case wire.KindNack:
		n.mon.onNack(in.m.(*wire.Nack))
	case wire.KindAckRequest:
		n.onAckRequest(in.m.(*wire.AckRequest))
	case wire.KindAckExhibit:
		n.mon.onAckExhibit(in.m.(*wire.AckExhibit))
	}
}

// admit runs rule r over in and reports whether the message may reach its
// handler; otherwise it has been dropped, deferred or reported. The message
// is decoded into the node's shell for r, and a sealed one opens into a
// pooled writer: whoever made in releases it once the handler returns,
// admitted or not.
func (n *Node) admit(r *rule, in *inbound) bool {
	return n.accept(r, in) && n.vet(r.checks, in)
}

// accept runs steps 1 to 5 of r.
func (n *Node) accept(r *rule, in *inbound) bool {
	if b := n.cfg.Behavior; r.mute.RefuseReceive && b.RefuseReceive ||
		r.mute.SilentMonitor && b.SilentMonitor || r.mute.IgnoreProbes && b.IgnoreProbes {
		return false
	}
	in.body = in.msg.Payload
	if r.sealed {
		in.w = wire.GetWriter()
		var err error
		if in.body, err = in.w.Open(n.cfg.Identity, in.body); err != nil {
			return n.refuse(r, in, "undecryptable "+r.name)
		}
	}
	in.m = r.shell(&n.shells)
	if in.m.Decode(in.body) != nil {
		return n.refuse(r, in, r.malformed)
	}
	in.h = in.m.Head()
	h := &in.h
	if !n.bound(r.bind, in) {
		return n.refuse(r, in, r.malformed)
	}
	switch r.window {
	case exchangeRound:
		if h.Round == n.round+1 || n.round == 0 {
			// Kept past the handler's return: own the bytes.
			in.msg.Payload = bytes.Clone(in.msg.Payload)
			n.deferred = append(n.deferred, early{h.Round, in.msg})
			return false
		}
		fallthrough
	case thisRound:
		if h.Round != n.round || n.round == 0 {
			return false
		}
	}
	// A bad signature is the envelope sender's fault, not the claimed
	// signer's: anyone can put a signer's name on bytes it never signed.
	signed := wire.SignedPrefix(in.body, h.Sig)
	if r.name == "" && n.sh.Suite.Verify(h.From, signed, h.Sig) != nil ||
		r.name != "" && !n.verify(h.From, in.msg.From, signed, h.Sig, r.name) {
		return false
	}
	return r.window != monitorRound || n.round == 0 ||
		h.Round+monitorKeep >= n.round && h.Round <= n.round+1
}

// refuse drops a message that failed to open, decode or bind, raising
// detail when the rule reports such messages.
func (n *Node) refuse(r *rule, in *inbound, detail string) bool {
	if r.malformed != "" {
		n.report(judicial.Verdict{Round: in.round, Kind: VerdictBadMessage, Accused: in.msg.From, Detail: detail})
	}
	return false
}

// bound reports whether a decoded message is bound to its envelope.
func (n *Node) bound(b binding, in *inbound) bool {
	h, from := &in.h, in.msg.From
	switch b {
	case toReceiver:
		return h.From == from && h.To == n.id
	case toSender:
		return h.To == from && h.Round == in.round
	case relayMonitors:
		d := n.sh.Directory
		return d.IsMonitorOf(from, h.From, h.Round) && d.IsMonitorOf(n.id, h.To, h.Round)
	}
	return h.From == from
}

// vet runs checks over an accepted message in order, stopping at the first
// that fails. A fault is the envelope sender's: for a nested message, the
// node that sent the message carrying it.
func (n *Node) vet(checks []check, in *inbound) bool {
	for _, c := range checks {
		if ok, fault := n.passes(c, in); !ok {
			if fault != "" {
				n.report(judicial.Verdict{Round: in.h.Round, Kind: VerdictBadMessage,
					Accused: in.msg.From, Detail: fault})
			}
			return false
		}
	}
	return true
}

// passes evaluates one check; a failure with a fault raises it as
// BadMessage against the sender, one without drops the message silently.
func (n *Node) passes(c check, in *inbound) (ok bool, fault string) {
	d, h := n.sh.Directory, &in.h
	switch c {
	case fromPredecessor:
		// Only a predecessor is owed a prime (each one issued drains the
		// pool and widens K(R,B)), and only one may serve this node (what
		// it stores it must forward next round).
		if _, ok := d.ExchangeSlot(h.From, n.id, h.Round); !ok {
			return false, wire.KindName(in.m.Kind()) + " from a non-predecessor"
		}
	case fromAsked:
		ex := n.send.exchange(h.From)
		return ex != nil && !ex.served && !ex.skipped, ""
	case primeWidth:
		// Every honest prime has exactly the session's width (the generator
		// forces its top bits); a lift under a wider one costs time in
		// proportion to its length.
		k, err := hhash.KeyFromBytes(in.m.(*wire.KeyResponse).Prime)
		if err != nil || k.BitLen() != n.sh.primeBits {
			return false, "invalid prime in KeyResponse"
		}
		in.key = k
	case servedItems:
		// The signature proves who sent the multiplicities, not that they
		// are usable: a zero one would drop the update from every product
		// it is folded into, and an absurd one could wrap the sums the
		// node keeps back to zero.
		srv := in.m.(*wire.Serve)
		for i := range srv.Full {
			su := &srv.Full[i]
			if !validServedCount(su.Count) {
				return false, fmt.Sprintf("multiplicity %d served for update %v", su.Count, su.Update.ID)
			}
			if su.Update.ID.Stream != 0 { // a session carries stream 0 alone
				return false, "update for unknown stream"
			}
		}
		for _, ref := range srv.Refs {
			if !validServedCount(ref.Count) {
				return false, fmt.Sprintf("multiplicity %d served for update %v", ref.Count, ref.ID)
			}
		}
	case kPrevWidth:
		// The Ack is a lift under K(R-1).
		k, err := hhash.KeyFromBytes(in.m.(*wire.Serve).KPrev)
		if err != nil || k.BitLen() > n.kPrevBitsBound(h.From) {
			return false, "invalid K(R-1) in Serve"
		}
		in.key = k
	case remainderWidth:
		// The monitor lifts both forwarded attestation hashes by the
		// remainder: the product of the primes the sender issued its other
		// predecessors, each exactly primeBits wide.
		others := len(d.Predecessors(h.From, h.Round)) - 1
		k, err := hhash.KeyFromBytes(in.m.(*wire.AttForward).Remainder)
		if err != nil || k.BitLen() > max(1, others*n.sh.primeBits) {
			return false, "invalid remainder in AttForward"
		}
		in.key = k
	case fromMonitor:
		return d.IsMonitorOf(h.From, n.id, h.Round), ""
	case fromMonitored:
		return d.IsMonitorOf(n.id, h.From, h.Round), ""
	case fromCoMonitor:
		y := in.m.(*wire.HashShare).Monitored
		return d.IsMonitorOf(h.From, y, h.Round) && d.IsMonitorOf(n.id, y, h.Round), ""
	case fromDesignated:
		s := in.m.(*wire.HashShare)
		if designatedMonitor(d.Monitors(s.Monitored, h.Round), s.Pred, h.Round) != h.From {
			return false, "hash share from non-designated monitor"
		}
	case realExchange:
		// A share, or the attestation its designated monitor lifts into
		// one, folds an exchange into the obligation of its successor:
		// one the directory does not hold would make that node's honest
		// self-digest disagree with every monitor that folded it.
		pred, succ := h.From, h.To
		if s, ok := in.m.(*wire.HashShare); ok {
			pred, succ = s.Pred, s.Monitored
		}
		_, ok := d.ExchangeSlot(pred, succ, h.Round)
		return ok, ""
	case toDesignated:
		// Only the designated monitor lifts an exchange and shares it
		// (HashShare's fromDesignated): the one the attestation's sender,
		// in.msg.From, reports the exchange with h.From to.
		if designatedMonitor(d.Monitors(in.msg.From, h.Round), h.From, h.Round) != n.id {
			return false, "attestation forwarded to a non-designated monitor"
		}
	case nackMonitors:
		k := in.m.(*wire.Nack)
		return d.IsMonitorOf(h.From, k.Against, h.Round) && d.IsMonitorOf(n.id, k.Accuser, h.Round), ""
	case accusedMonitored:
		return d.IsMonitorOf(n.id, in.m.(*wire.Accusation).Against, h.Round), ""
	case fromPredOfAccused:
		if !slices.Contains(d.Predecessors(in.m.(*wire.Accusation).Against, h.Round), h.From) {
			return false, "accusation from a non-predecessor"
		}
	}
	return true, ""
}
