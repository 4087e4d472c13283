package core

import (
	"bytes"
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

func (n *Node) onKeyRequest(msg transport.Message) {
	if n.cfg.Behavior.RefuseReceive {
		return
	}
	req, err := wire.UnmarshalKeyRequest(msg.Payload)
	if err != nil || req.From != msg.From || req.To != n.id {
		n.report(judicial.Verdict{Round: n.round, Kind: VerdictBadMessage,
			Accused: msg.From, Detail: "malformed KeyRequest"})
		return
	}
	if req.Round != n.round {
		return // phase skew: dropped, the sender's monitors investigate
	}
	if !n.verifySigned(req.From, msg.Payload, req.Sig, "KeyRequest") {
		return
	}

	ex, ok := n.recvCur.exchanges[req.From]
	if !ok || ex.prime.IsZero() {
		// The prime is generated on the first KeyRequest — which over a
		// real transport may arrive after a reordered Serve already
		// opened the exchange with a zero prime (processServe). Issuing
		// a prime and entering recvCur.order are one step: order is what
		// feeds K(R,B), the monitor reports and the self-digest, and an
		// exchange belongs there exactly when it has a prime (and never
		// with a zero one, so a failed generation leaves no trace).
		prime, err := n.drawPrime()
		if err != nil {
			return
		}
		if !ok {
			ex = n.newRecvExchange()
			n.recvCur.exchanges[req.From] = ex
		}
		ex.prime = prime
		n.recvCur.order = append(n.recvCur.order, req.From)
	}

	resp := &wire.KeyResponse{
		Round: n.round,
		From:  n.id,
		To:    req.From,
		Prime: ex.prime.Bytes(),
	}
	// Buffermap: tags of what this node owns and could still be served, as
	// of now — including what earlier slots of this round delivered —
	// hashed under the fresh prime (§V-D): the requester matches without
	// revealing identifiers. The embeddings are gathered here, on the
	// node's goroutine (embedOf fills the store and the interner); only the
	// lifts may run on other cores.
	s := getTagScratch()
	defer s.release() // resp.BufferMap is s.tags until the send
	for _, e := range n.store.OwnedInWindow(n.round, 0) {
		s.bases = append(s.bases, n.embedOf(e))
	}
	resp.BufferMap = update.NewBufferMap(n.tagsOf(s, ex.prime))
	n.signEncryptSend(req.From, resp, wire.KindKeyResponse)
	if n.trace != nil {
		n.trace.Emit("key_response",
			obs.XID(model.ExchangeID(n.round, req.From, n.id)),
			obs.F("round", n.round), obs.F("from", req.From), obs.F("to", n.id),
			obs.F("buffermap", len(resp.BufferMap)))
	}
}

// signEncrypt builds {⟨m⟩_X}_pk(to), the paper's construction for
// messages 2, 3 and 7: m is encoded and signed in a pooled buffer and
// sealed straight from it into one exact-size ciphertext, which the sender
// owns — the form of a Serve it keeps as evidence.
func (n *Node) signEncrypt(to model.NodeID, m wire.BodyMessage) ([]byte, error) {
	w := wire.GetWriter()
	defer w.Release()
	plain, err := wire.Seal(w, m, n.cfg.Identity)
	if err != nil {
		return nil, err
	}
	return n.encryptTo(nil, to, plain)
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

func (n *Node) onKeyResponse(msg transport.Message) {
	w := wire.GetWriter()
	defer w.Release() // resp aliases the opened plaintext until here
	plain, err := w.Open(n.cfg.Identity, msg.Payload)
	if err != nil {
		n.report(judicial.Verdict{Round: n.round, Kind: VerdictBadMessage,
			Accused: msg.From, Detail: "undecryptable KeyResponse"})
		return
	}
	resp, err := wire.UnmarshalKeyResponse(plain)
	if err != nil || resp.From != msg.From || resp.To != n.id {
		n.report(judicial.Verdict{Round: n.round, Kind: VerdictBadMessage,
			Accused: msg.From, Detail: "malformed KeyResponse"})
		return
	}
	if resp.Round != n.round {
		return // stale response
	}
	if !n.verifySigned(resp.From, plain, resp.Sig, "KeyResponse") {
		return
	}
	ex := n.sendCur.perSucc[resp.From]
	if ex == nil || ex.served || ex.skipped {
		return
	}
	prime, err := hhash.KeyFromBytes(resp.Prime)
	if err != nil {
		n.report(judicial.Verdict{Round: n.round, Kind: VerdictBadMessage,
			Accused: msg.From, Detail: "invalid prime in KeyResponse"})
		return
	}
	// Decoding proved the tags strictly ascending: they are a BufferMap.
	n.serve(resp.From, ex, prime, update.BufferMap(resp.BufferMap))
}

// serve builds and sends messages 3 (Serve) and 4 (Attestation) for one
// successor, honouring behaviour-injected deviations.
func (n *Node) serve(succ model.NodeID, ex *sendExchange, prime hhash.Key, bm update.BufferMap) {
	items := n.sendCur.items
	// Selfish deviation: silently drop the tail of the forward set. The
	// attestation is computed over what is actually sent, so the receiver
	// verifies it fine — only the monitors' obligation check can catch
	// the deviation (§VI-B).
	if d := n.cfg.Behavior.DropUpdates; d > 0 {
		if d >= len(items) {
			items = nil
		} else {
			items = items[:len(items)-d]
		}
	}

	srv := &wire.Serve{
		Round: n.round,
		From:  n.id,
		To:    succ,
		KPrev: n.sendCur.kPrev.Bytes(),
	}
	s := getTagScratch()
	for _, it := range items {
		ve := it.embed
		if ve == nil {
			ve = n.embed(&it.upd)
		}
		s.bases = append(s.bases, ve)
	}
	// No map, no lift: against an empty buffermap (a successor that owns
	// nothing yet) matching costs no hash operation.
	var tags []uint64
	if len(bm) > 0 {
		tags = n.tagsOf(s, prime)
	}
	// Partition into payloads vs refs via the buffermap, and accumulate
	// the attestation products split by expiration (§V-D).
	expProd := n.hasher.Identity()
	fwdProd := n.hasher.Identity()
	for i, it := range items {
		if tags != nil && bm.Contains(tags[i]) {
			srv.Refs = append(srv.Refs, wire.ServedRef{ID: it.upd.ID, Count: it.count})
			n.stats.RefsSent++
		} else {
			srv.Full = append(srv.Full, wire.ServedUpdate{Update: it.upd, Count: it.count})
			n.stats.PayloadsSent++
		}
		v := s.bases[i].Value()
		if it.count != 1 {
			v = n.hasher.Lift(v, mustCountKey(it.count))
		}
		if it.upd.ExpiresNextRound(n.round) {
			expProd = n.hasher.Combine(expProd, v)
		} else {
			fwdProd = n.hasher.Combine(fwdProd, v)
		}
	}
	s.release()

	att := &wire.Attestation{Round: n.round, From: n.id, To: succ}
	hExp := n.hasher.Lift(expProd, prime)
	hFwd := n.hasher.Lift(fwdProd, prime)
	var err error
	if att.HExpiring, err = n.sh.HashParams.EncodeValue(hExp); err != nil {
		return
	}
	if att.HForwardable, err = n.sh.HashParams.EncodeValue(hFwd); err != nil {
		return
	}

	// Send the Serve encrypted, then the Attestation in the clear (it is
	// meaningless without the prime); record both for accusations.
	cipher, err := n.signEncrypt(succ, srv)
	if err != nil {
		return
	}
	attBytes, err := n.signOwned(att)
	if err != nil {
		return
	}

	_ = n.cfg.Endpoint.Send(succ, wire.KindServe, cipher)
	_ = n.cfg.Endpoint.Send(succ, wire.KindAttestation, attBytes)

	ex.served = true
	ex.serveCipher = cipher
	ex.attBytes = attBytes
}

// ---------------------------------------------------------------------------
// Receiver side: messages 3 + 4 → 5 (this node is B)
// ---------------------------------------------------------------------------

func (n *Node) onServe(msg transport.Message) {
	if n.cfg.Behavior.RefuseReceive {
		return
	}
	w := wire.GetWriter()
	defer w.Release() // srv aliases the opened plaintext until here
	plain, err := w.Open(n.cfg.Identity, msg.Payload)
	if err != nil {
		n.report(judicial.Verdict{Round: n.round, Kind: VerdictBadMessage,
			Accused: msg.From, Detail: "undecryptable Serve"})
		return
	}
	srv, err := wire.UnmarshalServe(plain)
	if err != nil || srv.From != msg.From || srv.To != n.id {
		n.report(judicial.Verdict{Round: n.round, Kind: VerdictBadMessage,
			Accused: msg.From, Detail: "malformed Serve"})
		return
	}
	if srv.Round != n.round {
		return // stale serve
	}
	if !n.verifySigned(srv.From, plain, srv.Sig, "Serve") {
		return
	}
	n.processServe(srv)
}

// processServe accepts a verified Serve (from the direct path or a monitor
// probe) and, once the attestation is present, acknowledges.
func (n *Node) processServe(srv *wire.Serve) {
	// The signature proves who sent the multiplicities, not that they are
	// usable: a zero one has no key (mustCountKey), and an absurd one could
	// wrap the sums the node keeps back to zero. Nothing is stored yet.
	reject := func(count uint64, id model.UpdateID) {
		n.report(judicial.Verdict{Round: n.round, Kind: VerdictBadMessage,
			Accused: srv.From, Detail: fmt.Sprintf("multiplicity %d served for update %v", count, id)})
	}
	for i := range srv.Full {
		if su := &srv.Full[i]; !validServedCount(su.Count) {
			reject(su.Count, su.Update.ID)
			return
		}
	}
	for _, ref := range srv.Refs {
		if !validServedCount(ref.Count) {
			reject(ref.Count, ref.ID)
			return
		}
	}
	ex, ok := n.recvCur.exchanges[srv.From]
	if !ok {
		// A serve without a prior KeyRequest→KeyResponse handshake can
		// only happen through the probe path; accept it with a zero
		// prime (attestation verification is skipped, the exchange
		// cannot enter the obligation).
		ex = n.newRecvExchange()
		n.recvCur.exchanges[srv.From] = ex
	}
	if ex.expEmbed != nil {
		return // duplicate serve for this exchange
	}

	kPrevA, err := hhash.KeyFromBytes(srv.KPrev)
	if err != nil {
		n.report(judicial.Verdict{Round: n.round, Kind: VerdictBadMessage,
			Accused: srv.From, Detail: "invalid K(R-1) in Serve"})
		return
	}

	expProd := n.hasher.Identity()
	fwdProd := n.hasher.Identity()
	// accept books one served item and reports whether the update was new
	// to this node.
	accept := func(u update.Update, count uint64) bool {
		fwd := !u.ExpiresNextRound(n.round)
		fresh := n.store.Add(u, n.round, count, fwd)
		if fresh {
			n.stats.UpdatesReceived++
		} else {
			n.stats.DuplicateReceptions += count
		}
		var ve *hhash.FixedBase
		if e := n.store.Get(u.ID); e != nil {
			ve = n.embedOf(e)
		} else {
			ve = n.embed(&u)
		}
		v := ve.Value()
		if count != 1 {
			v = n.hasher.Lift(v, mustCountKey(count))
		}
		if fwd {
			fwdProd = n.hasher.Combine(fwdProd, v)
			it, ok := n.pendingNext[u.ID]
			if !ok {
				n.pendingNext[u.ID] = n.newPendingItem(u, count, ve)
			} else {
				it.count += count
			}
		} else {
			expProd = n.hasher.Combine(expProd, v)
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
		src, ok := n.streamSource(su.Update.ID.Stream)
		if !ok {
			n.report(judicial.Verdict{Round: n.round, Kind: VerdictBadMessage,
				Accused: srv.From, Detail: "update for unknown stream"})
			return
		}
		if !n.verifyUpdate(src, &su.Update) {
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

	ex.expEmbed = expProd
	ex.fwdEmbed = fwdProd
	ex.kPrevA = kPrevA
	if n.trace != nil {
		n.trace.Emit("serve",
			obs.XID(model.ExchangeID(n.round, srv.From, n.id)),
			obs.F("round", n.round), obs.F("from", srv.From), obs.F("to", n.id),
			obs.F("payloads", len(srv.Full)), obs.F("refs", len(srv.Refs)))
	}
	n.maybeAck(srv.From, ex)
}

func (n *Node) onAttestation(msg transport.Message) {
	if n.cfg.Behavior.RefuseReceive {
		return
	}
	att, err := wire.UnmarshalAttestation(msg.Payload)
	if err != nil || att.From != msg.From || att.To != n.id {
		n.report(judicial.Verdict{Round: n.round, Kind: VerdictBadMessage,
			Accused: msg.From, Detail: "malformed Attestation"})
		return
	}
	if att.Round != n.round {
		return // stale attestation
	}
	if !n.verifySigned(att.From, msg.Payload, att.Sig, "Attestation") {
		return
	}
	ex, ok := n.recvCur.exchanges[att.From]
	if !ok || ex.attBytes != nil {
		return
	}
	ex.attBytes = bytes.Clone(msg.Payload) // evidence: outlives the delivery
	n.maybeAck(att.From, ex)
}

// maybeAck fires once both the Serve and the Attestation of an exchange
// have arrived: it verifies the attestation against the served content
// ("The attestation that node A sends can be verified by node B", §VI-B)
// and sends the acknowledgement under K(R-1,A).
func (n *Node) maybeAck(pred model.NodeID, ex *recvExchange) {
	if ex.expEmbed == nil || ex.attBytes == nil || ex.ackBytes != nil {
		return
	}
	att, err := wire.UnmarshalAttestation(ex.attBytes)
	if err != nil {
		return
	}
	if !ex.prime.IsZero() {
		// Fold both attestation checks into one coefficient-weighted
		// equation; on failure (or an undecodable value: nil, which
		// VerifyBatch treats as a failing check) it re-checks individually,
		// so the verdict below is backed by a per-equation mismatch either
		// way.
		gotExp, _ := n.sh.HashParams.DecodeValue(att.HExpiring)
		gotFwd, _ := n.sh.HashParams.DecodeValue(att.HForwardable)
		ok, _ := n.hasher.VerifyBatch(n.coeffs, []hhash.Check{
			{Base: ex.expEmbed, Key: ex.prime, Want: gotExp},
			{Base: ex.fwdEmbed, Key: ex.prime, Want: gotFwd},
		})
		if !ok {
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
	full := n.hasher.Combine(ex.expEmbed, ex.fwdEmbed)
	h := n.hasher.Lift(full, ex.kPrevA)
	enc, err := n.sh.HashParams.EncodeValue(h)
	if err != nil {
		return
	}
	ack := &wire.Ack{Round: n.round, From: n.id, To: pred, H: enc}
	if ex.ackBytes, err = n.signOwned(ack); err != nil {
		return
	}
	_ = n.cfg.Endpoint.Send(pred, wire.KindAck, ex.ackBytes)
	if n.trace != nil {
		n.trace.Emit("ack_sent",
			obs.XID(model.ExchangeID(n.round, pred, n.id)),
			obs.F("round", n.round), obs.F("from", pred), obs.F("to", n.id))
	}
}

// ---------------------------------------------------------------------------
// Sender side: message 5 (this node is A)
// ---------------------------------------------------------------------------

func (n *Node) onAck(msg transport.Message) {
	ack, err := wire.UnmarshalAck(msg.Payload)
	if err != nil || ack.From != msg.From || ack.To != n.id {
		n.report(judicial.Verdict{Round: n.round, Kind: VerdictBadMessage,
			Accused: msg.From, Detail: "malformed Ack"})
		return
	}
	if ack.Round != n.round {
		return // stale ack
	}
	if !n.verifySigned(ack.From, msg.Payload, ack.Sig, "Ack") {
		return
	}
	ex := n.sendCur.perSucc[ack.From]
	if ex == nil || !ex.served || ex.acked {
		return
	}
	h, err := n.sh.HashParams.DecodeValue(ack.H)
	if err != nil {
		return
	}
	if n.expectedAckFor(ex).Cmp(h) != 0 {
		// Treat a wrong acknowledgement as a missing one: the
		// accusation path re-runs the exchange under monitor scrutiny.
		return
	}
	ex.acked = true
	ex.ackBytes = bytes.Clone(msg.Payload) // evidence: outlives the delivery
	if n.trace != nil {
		n.trace.Emit("ack_received",
			obs.XID(model.ExchangeID(n.round, n.id, ack.From)),
			obs.F("round", n.round), obs.F("from", n.id), obs.F("to", ack.From))
	}
}

// expectedAckFor returns the acknowledgement hash this node expects from a
// successor — normally the round's precomputed value, recomputed only when
// a deviation trimmed the served set.
func (n *Node) expectedAckFor(ex *sendExchange) *big.Int {
	if n.cfg.Behavior.DropUpdates == 0 {
		return n.sendCur.expectedAckH
	}
	items := n.sendCur.items
	if d := n.cfg.Behavior.DropUpdates; d >= len(items) {
		items = nil
	} else {
		items = items[:len(items)-d]
	}
	prod := n.hasher.Identity()
	for _, it := range items {
		b := it.embed
		if b == nil {
			b = n.embed(&it.upd)
		}
		v := b.Value()
		if it.count != 1 {
			v = n.hasher.Lift(v, mustCountKey(it.count))
		}
		prod = n.hasher.Combine(prod, v)
	}
	return n.hasher.Lift(prod, n.sendCur.kPrev)
}

// streamSource maps a stream to its source node.
func (n *Node) streamSource(s model.StreamID) (model.NodeID, bool) {
	idx := int(s)
	if idx < 0 || idx >= len(n.sh.Sources) {
		return model.NoNode, false
	}
	return n.sh.Sources[idx], true
}
