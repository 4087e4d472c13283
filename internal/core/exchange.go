package core

import (
	"fmt"
	"math/big"

	"repro/internal/hhash"
	"repro/internal/judicial"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// This file implements the Fig 5 exchange: the five messages a predecessor
// A and a successor B trade during one round, plus the sender-side
// accusation trigger and the probe/exhibit answers of §IV-A.

// ---------------------------------------------------------------------------
// Receiver side: messages 1 → 2 (this node is B)
// ---------------------------------------------------------------------------

func (n *Node) onKeyRequest(req *wire.KeyRequest) {
	ex := n.recv.exchange(req.From)
	if ex == nil || ex.prime.IsZero() {
		// The prime is generated on the first KeyRequest — which over a
		// real transport may arrive after a reordered Serve already
		// opened the exchange with a zero prime (processServe). Issuing
		// a prime and taking the last place in recv.preds are one step:
		// that order is what feeds K(R,B), the monitor reports and the
		// self-digest, and an exchange enters them exactly when it has a
		// prime (never with a zero one, so a failed generation leaves no
		// trace).
		prime, err := n.pool.Get()
		if err != nil {
			return
		}
		if ex == nil {
			ex = n.recv.open(req.From)
		} else {
			ex = n.recv.moveLast(ex)
		}
		ex.prime = prime
	}

	resp := &wire.KeyResponse{
		Round: n.round,
		From:  n.id,
		To:    req.From,
		Prime: ex.prime.Bytes(),
	}
	// Buffermap: tags of what this node owns and could still be served, as
	// of now — including what earlier slots of this round delivered —
	// keyed by the fresh prime (§V-D): the requester matches without
	// revealing identifiers.
	s := getTagScratch()
	defer s.release() // resp.BufferMap is s.tags until the send
	n.live = n.store.Live(n.live[:0], n.round)
	for _, e := range n.live {
		s.embeds = append(s.embeds, n.embedOf(e))
	}
	clear(n.live)
	resp.BufferMap = update.NewBufferMap(n.tagsOf(s, ex.prime))
	n.signEncryptSend(req.From, resp, wire.KindKeyResponse)
	if n.trace != nil {
		n.trace.Emit("key_response",
			obs.XID(model.ExchangeID(n.round, req.From, n.id)),
			obs.F("round", n.round), obs.F("from", req.From), obs.F("to", n.id),
			obs.F("buffermap", len(resp.BufferMap)))
	}
}

// sealServe builds {⟨srv⟩_A}_pk(srv.To), the paper's construction for
// message 3, and hands the ciphertext to use: srv is encoded and signed
// into one pooled buffer presized to its sealed length and encrypted into
// a second presized to the ciphertext's, so even a Serve past the writer
// pool's cap is written once into each, never regrown through appends.
// Both return to the pool when use returns, and so does srv, emptied: it
// is serveOf's, and nothing is kept. A Serve is sealed when it is served
// and sealed again, from what its exchange recorded, only when it has to
// go into an accusation.
func (n *Node) sealServe(srv *wire.Serve, use func(cipher []byte)) error {
	defer func() {
		_ = srv.Decode(nil) // decoding nothing empties it, keeping its lists' arrays
		servePool.Put(srv)
	}()
	pw := wire.GetWriterSize(srv.SealedLen(n.sh.Suite.SignatureSize()))
	defer pw.Release()
	plain, err := wire.Seal(pw, srv, n.cfg.Identity)
	if err != nil {
		return err
	}
	cw := wire.GetWriterSize(len(plain) + n.sh.Suite.CiphertextOverhead())
	defer cw.Release()
	cipher, err := cw.Encrypt(encrypter{n}, srv.To, plain)
	if err != nil {
		return err
	}
	use(cipher)
	return nil
}

// signEncryptSend sends {⟨m⟩_X}_pk(to) under the given kind, keeping
// nothing: m is sealed in one pooled buffer, encrypted into another and
// lent to the send.
func (n *Node) signEncryptSend(to model.NodeID, m wire.BodyMessage, kind uint8) {
	pw, cw := wire.GetWriter(), wire.GetWriter()
	defer pw.Release()
	defer cw.Release()
	plain, err := wire.Seal(pw, m, n.cfg.Identity)
	if err != nil {
		return
	}
	if cipher, err := cw.Encrypt(encrypter{n}, to, plain); err == nil {
		_ = transport.SendLent(n.cfg.Endpoint, kind, cipher, to)
	}
}

// ---------------------------------------------------------------------------
// Sender side: messages 2 → 3 + 4 (this node is A)
// ---------------------------------------------------------------------------

// serve builds and sends messages 3 (Serve) and 4 (Attestation) for one
// successor, honouring behaviour-injected deviations, and records in ex
// what the Serve carried.
func (n *Node) serve(succ model.NodeID, ex *sendExchange, prime hhash.Key, bm update.BufferMap) {
	items := n.servedItems()
	ex.nServed = len(items)
	ex.refs = ex.refs[:0]
	// No map, no tags: against an empty buffermap (a successor that owns
	// nothing yet) matching costs no hash operation, and every item goes
	// in full.
	if len(bm) > 0 {
		s := getTagScratch()
		for _, it := range items {
			s.embeds = append(s.embeds, it.embed)
		}
		for _, tag := range n.tagsOf(s, prime) {
			ex.refs = append(ex.refs, bm.Contains(tag))
		}
		s.release()
	}
	// Attest the round's served set, folded once at BeginRound, under
	// this successor's prime (§V-D); each attestation still counts the
	// set's count-powers (hhash.Counter).
	sr := &n.send
	n.hasher.Recharge(&sr.exp)
	n.hasher.Recharge(&sr.fwd)
	att := &n.out.att
	defer func() { *att = wire.Attestation{} }()
	*att = wire.Attestation{Round: n.round, From: n.id, To: succ}
	n.out.values = n.out.values[:0]
	var err error
	if att.HExpiring, err = n.encodeValue(n.hasher.LiftFold(&n.lifted, prime, &sr.exp)); err != nil {
		return
	}
	if att.HForwardable, err = n.encodeValue(n.hasher.LiftFold(&n.lifted, prime, &sr.fwd)); err != nil {
		return
	}

	// Send the Serve encrypted, then the Attestation in the clear (it is
	// meaningless without the prime); keep the Attestation for an
	// accusation.
	srv := n.serveOf(succ, ex)
	n.stats.RefsSent += uint64(len(srv.Refs))
	n.stats.PayloadsSent += uint64(len(srv.Full))
	if err := n.sealServe(srv, func(cipher []byte) {
		_ = transport.SendLent(n.cfg.Endpoint, wire.KindServe, cipher, succ)
	}); err != nil {
		return
	}
	if ex.attBytes, err = n.signKept(att); err != nil {
		return
	}
	_ = transport.SendLent(n.cfg.Endpoint, wire.KindAttestation, ex.attBytes, succ)
	ex.served = true
}

// serveOf fills a Serve borrowed from servePool with what ex records for
// succ: the first ex.nServed items of the round's forward set, each as a
// ref where ex.refs marks it and in full otherwise, in the arrays the
// lists kept from earlier Serves. sealServe returns it.
func (n *Node) serveOf(succ model.NodeID, ex *sendExchange) *wire.Serve {
	if n.send.kPrevBytes == nil {
		n.send.kPrevBytes = n.send.kPrev.Bytes()
	}
	srv := servePool.Get().(*wire.Serve)
	srv.Round, srv.From, srv.To, srv.KPrev = n.round, n.id, succ, n.send.kPrevBytes
	for i, it := range n.send.items[:ex.nServed] {
		if i < len(ex.refs) && ex.refs[i] {
			srv.Refs = append(srv.Refs, wire.ServedRef{ID: it.upd.ID, Count: it.count})
		} else {
			srv.Full = append(srv.Full, wire.ServedUpdate{Update: it.upd, Count: it.count})
		}
	}
	return srv
}

// ---------------------------------------------------------------------------
// Receiver side: messages 3 + 4 → 5 (this node is B)
// ---------------------------------------------------------------------------

// processServe accepts an admitted Serve (delivered, or relayed by a
// monitor probe) with its parsed K(R-1) and, once the attestation is
// present, acknowledges.
func (n *Node) processServe(srv *wire.Serve, kPrevA hhash.Key) {
	ex := n.recv.exchange(srv.From)
	if ex == nil {
		// A predecessor's serve without a prior KeyRequest→KeyResponse
		// handshake can only happen through the probe path; accept it
		// with a zero prime (attestation verification is skipped, the
		// exchange cannot enter the obligation).
		ex = n.recv.open(srv.From)
	}
	if ex.served {
		return // duplicate serve for this exchange
	}

	// A Serve refused part-way left a partial product: start afresh.
	ex.exp.Reset()
	ex.fwd.Reset()
	// accept books one served item, folding it into the exchange's
	// products, and reports whether the update was new to this node.
	accept := func(u update.Update, count uint64) bool {
		fresh := n.store.Add(u, n.round, count)
		if fresh {
			n.stats.UpdatesReceived++
		} else {
			n.stats.DuplicateReceptions += count
		}
		ve := n.embedOf(n.store.Get(u.ID))
		if !u.ExpiresNextRound(n.round) {
			n.hasher.Mul(&ex.fwd, ve, count)
			if i, ok := n.nextAt[u.ID]; ok {
				n.next[i].count += count
			} else {
				n.nextAt[u.ID] = len(n.next)
				n.next = append(n.next, pendingItem{upd: u, count: count, embed: ve})
			}
		} else {
			n.hasher.Mul(&ex.exp, ve, count)
		}
		return fresh
	}

	for i := range srv.Full {
		su := &srv.Full[i]
		if su.Update.Expired(n.round) {
			n.report(judicial.Verdict{Round: n.round, Kind: VerdictBadMessage,
				Accused: srv.From, Detail: fmt.Sprintf("expired update %v served", su.Update.ID)})
			return
		}
		// "Updates are propagated along with their signature so that
		// they can be verified by the nodes upon reception" (§III).
		if !n.verifyUpdate(srv.From, &su.Update) {
			return
		}
		// Content verified against the source signature. The served update
		// still aliases the decrypted Serve; swap in the session-wide
		// flyweight copy before storing, so N nodes hold one
		// payload+signature allocation instead of N (a private clone when
		// the interner is ablated away).
		n.sh.servedPayloads.Inc()
		if !accept(n.sh.Intern.Canonical(su.Update), su.Count) {
			n.sh.duplicatePayloads.Inc()
		}
	}
	for _, ref := range srv.Refs {
		e := n.store.Get(ref.ID)
		if e == nil {
			n.report(judicial.Verdict{Round: n.round, Kind: VerdictBadMessage,
				Accused: srv.From, Detail: fmt.Sprintf("ref to unowned update %v", ref.ID)})
			return
		}
		n.sh.servedRefs.Inc()
		accept(e.Update, ref.Count)
	}

	ex.served = true
	ex.kPrevA = kPrevA
	if n.trace != nil {
		n.trace.Emit("serve",
			obs.XID(model.ExchangeID(n.round, srv.From, n.id)),
			obs.F("round", n.round), obs.F("from", srv.From), obs.F("to", n.id),
			obs.F("payloads", len(srv.Full)), obs.F("refs", len(srv.Refs)))
	}
	n.maybeAck(srv.From, ex)
}

// kPrevBitsBound is the widest an honest K(R-1,A) can be: the product of
// the primes A issued at R-1 — at most one per predecessor it had then,
// plus a fresh one if A is the source — each exactly primeBits wide. At
// round 1, or when A was not a member at R-1, it is 1.
func (n *Node) kPrevBitsBound(a model.NodeID) int {
	primes := 0
	if n.round > 1 {
		primes = len(n.sh.Directory.Predecessors(a, n.round-1))
	}
	if a == n.sh.Source {
		primes++
	}
	return max(1, primes*n.sh.primeBits)
}

func (n *Node) onAttestation(att *wire.Attestation, body []byte) {
	ex := n.recv.exchange(att.From)
	if ex == nil || ex.attBytes != nil {
		return
	}
	ex.attBytes = n.keep(body) // evidence: outlives the delivery
	n.maybeAck(att.From, ex)
}

// maybeAck fires once both the Serve and the Attestation of an exchange
// have arrived: it verifies the attestation against the served content
// ("The attestation that node A sends can be verified by node B", §VI-B)
// and sends the acknowledgement under K(R-1,A).
func (n *Node) maybeAck(pred model.NodeID, ex *recvExchange) {
	if !ex.served || ex.attBytes == nil || ex.ackBytes != nil {
		return
	}
	var att wire.Attestation
	if att.Decode(ex.attBytes) != nil {
		return
	}
	if !ex.prime.IsZero() {
		// This node issued the prime, so it recomputes both attested
		// values and compares them exactly: the verdict is re-derivable by
		// anyone holding the prime, and no secret randomness is involved.
		// Both lifts run whatever the outcome, so every path counts two
		// hash-ops; an undecodable value (nil) never matches.
		wantExp := n.hasher.LiftFold(&n.expected, ex.prime, &ex.exp)
		wantFwd := n.hasher.LiftFold(&n.lifted, ex.prime, &ex.fwd)
		gotExp, errExp := n.sh.HashParams.DecodeValue(&n.decoded[0], att.HExpiring)
		gotFwd, errFwd := n.sh.HashParams.DecodeValue(&n.decoded[1], att.HForwardable)
		if errExp != nil || errFwd != nil || gotExp.Cmp(wantExp) != 0 || gotFwd.Cmp(wantFwd) != 0 {
			// A mis-attested: refusing to acknowledge routes the
			// conflict through A's monitors, and the signed
			// attestation is the proof.
			n.report(judicial.Verdict{Round: n.round, Kind: VerdictBadAttestation,
				Accused: pred, Detail: "attestation does not match served content",
				Exchange: model.ExchangeID(n.round, pred, n.id)})
			return
		}
	}
	if n.cfg.Behavior.NoAck {
		return
	}
	n.sendAck(pred, ex)
}

// sendAck builds message 5 and remembers it for the monitor report.
func (n *Node) sendAck(pred model.NodeID, ex *recvExchange) {
	n.out.values = n.out.values[:0]
	enc, err := n.encodeValue(n.hasher.LiftFold(&n.lifted, ex.kPrevA, &ex.exp, &ex.fwd))
	if err != nil {
		return
	}
	n.out.ack = wire.Ack{Round: n.round, From: n.id, To: pred, H: enc}
	ex.ackBytes, err = n.signKept(&n.out.ack)
	n.out.ack = wire.Ack{}
	if err != nil {
		return
	}
	_ = transport.SendLent(n.cfg.Endpoint, wire.KindAck, ex.ackBytes, pred)
	if n.trace != nil {
		n.trace.Emit("ack_sent",
			obs.XID(model.ExchangeID(n.round, pred, n.id)),
			obs.F("round", n.round), obs.F("from", pred), obs.F("to", n.id))
	}
}

// ---------------------------------------------------------------------------
// Sender side: message 5 (this node is A)
// ---------------------------------------------------------------------------

func (n *Node) onAck(ack *wire.Ack, body []byte) {
	ex := n.send.exchange(ack.From)
	if ex == nil || !ex.served || ex.acked {
		return
	}
	h, err := n.sh.HashParams.DecodeValue(&n.decoded[0], ack.H)
	if err != nil {
		return
	}
	if n.expectedAckFor().Cmp(h) != 0 {
		// Treat a wrong acknowledgement as a missing one: the
		// accusation path re-runs the exchange under monitor scrutiny.
		return
	}
	ex.acked = true
	ex.ackBytes = n.keep(body) // evidence: outlives the delivery
	if n.trace != nil {
		n.trace.Emit("ack_received",
			obs.XID(model.ExchangeID(n.round, n.id, ack.From)),
			obs.F("round", n.round), obs.F("from", n.id), obs.F("to", ack.From))
	}
}

// servedItems is the round's forward set as this node serves it. A
// selfish deviation silently drops its tail; the attestation is computed
// over what is actually sent, so the receiver verifies it fine — only the
// monitors' obligation check can catch the deviation (§VI-B).
func (n *Node) servedItems() []pendingItem {
	items := n.send.items
	if d := n.cfg.Behavior.DropUpdates; d > 0 {
		items = items[:max(len(items)-d, 0)]
	}
	return items
}

// foldServed folds the round's served set once, split by expiry (§V-D):
// serve lifts the two products by each successor's prime, and every
// honest successor's Ack owes their product under K(R-1), expectedAckH.
// The tail a DropUpdates deviator does not serve still enters
// expectedAckH, the value an honest forwarder's successors would owe.
func (n *Node) foldServed() {
	sr := &n.send
	served := n.servedItems()
	for _, it := range served {
		f := &sr.fwd
		if it.upd.ExpiresNextRound(n.round) {
			f = &sr.exp
		}
		n.hasher.Mul(f, it.embed, it.count)
	}
	var dropped hhash.Fold
	for _, it := range sr.items[len(served):] {
		n.hasher.Mul(&dropped, it.embed, it.count)
	}
	sr.expectedAckH = n.hasher.LiftFold(new(big.Int), sr.kPrev, &sr.exp, &sr.fwd, &dropped)
}

// expectedAckFor returns the acknowledgement hash this node expects from a
// successor: the round's precomputed value, or, when a deviation trimmed
// the served set, a hash of the trimmed set, computed per acknowledgement
// and charged as if that set were folded afresh for it.
func (n *Node) expectedAckFor() *big.Int {
	sr := &n.send
	if n.cfg.Behavior.DropUpdates == 0 {
		return sr.expectedAckH
	}
	n.hasher.Recharge(&sr.exp)
	n.hasher.Recharge(&sr.fwd)
	return n.hasher.LiftFold(&n.lifted, sr.kPrev, &sr.exp, &sr.fwd)
}
