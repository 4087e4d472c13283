package core

import (
	"bytes"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file implements the monitored-node reporting of Fig 6 (messages 6–7
// and the §V-B self-digest) and the accusation flow of §IV-A.

// flushMonitorReports runs in MidRound (and again in EndRound to cover
// exchanges completed late through the probe path): for every completed
// exchange the node sends the Ack copy (message 6) and the attestation
// with the remainder product (message 7) to one designated monitor.
// The flush is idempotent per exchange.
func (n *Node) flushMonitorReports(r model.Round) {
	if n.cfg.Behavior.SkipMonitorReport || n.cfg.Behavior.RefuseReceive {
		return
	}
	monitors := n.sh.Directory.Monitors(n.id, r)
	if len(monitors) == 0 {
		return
	}
	for _, pred := range n.recvCur.order {
		ex := n.recvCur.exchanges[pred]
		if ex.ackBytes == nil || ex.attBytes == nil || ex.reported {
			continue
		}
		ex.reported = true
		d := designatedMonitor(monitors, pred, r)

		// Message 6: the raw signed Ack.
		_ = n.cfg.Endpoint.Send(d, wire.KindAckCopy, ex.ackBytes)

		// Message 7: attestation + remainder, encrypted to the monitor
		// so eavesdroppers never see prime products.
		fwd := &wire.AttForward{
			Round:     r,
			From:      n.id,
			AttBytes:  ex.attBytes,
			Remainder: n.recvCur.remainderFor(pred).Bytes(),
		}
		n.signEncryptSend(d, fwd, wire.KindAttForward)
		if n.trace != nil {
			n.trace.Emit("monitor_report",
				obs.XID(model.ExchangeID(r, pred, n.id)),
				obs.F("round", r), obs.F("from", pred), obs.F("to", n.id),
				obs.F("monitor", d))
		}
	}
}

// publishDigest sends the §V-B self-digest — H(∏ forwardable received)
// under K(R,self) — to all the node's monitors, once the round's reports
// are final (EndRound).
func (n *Node) publishDigest(r model.Round) {
	if n.cfg.Behavior.SkipMonitorReport || n.cfg.Behavior.RefuseReceive {
		return
	}
	monitors := n.sh.Directory.Monitors(n.id, r)
	if len(monitors) == 0 {
		return
	}
	digestProd := n.hasher.Identity()
	for _, pred := range n.recvCur.order {
		ex := n.recvCur.exchanges[pred]
		if ex.reported && ex.fwdEmbed != nil {
			digestProd = n.hasher.Combine(digestProd, ex.fwdEmbed)
		}
	}
	digest := n.hasher.Lift(digestProd, n.recvCur.productKey())
	enc, err := n.sh.HashParams.EncodeValue(digest)
	if err != nil {
		return
	}
	n.signAndSendAll(monitors, &wire.NodeDigest{Round: r, From: n.id, HFwd: enc})
}

// raiseAccusations runs in MidRound on the sender side: every served but
// unacknowledged successor is reported to its monitors with the encrypted
// Serve and the attestation, so the monitors can replay the exchange
// ("sending to nodes in M(B) the update u, and making them forward it to
// node B and ask for an acknowledgement", §IV-A).
func (n *Node) raiseAccusations(r model.Round) {
	for _, succ := range n.sh.Directory.Successors(n.id, r) {
		ex := n.sendCur.perSucc[succ]
		if ex == nil || ex.skipped || ex.acked || ex.accused {
			continue
		}
		if !ex.served {
			// The successor never answered the KeyRequest, so the
			// exchange could not even start: build the Serve now
			// (all payloads, no buffermap, no attestation — there is
			// no prime) so the monitors can deliver it (§IV-A).
			n.serveForAccusation(succ, ex)
			if !ex.served {
				continue
			}
		}
		ex.accused = true
		n.stats.AccusationsSent++
		acc := &wire.Accusation{
			Round:       r,
			From:        n.id,
			Against:     succ,
			ServeCipher: ex.serveCipher,
			AttBytes:    ex.attBytes,
		}
		n.signAndSendAll(n.sh.Directory.Monitors(succ, r), acc)
		if n.trace != nil {
			n.trace.Emit("accusation",
				obs.XID(model.ExchangeID(r, n.id, succ)),
				obs.F("round", r), obs.F("from", n.id), obs.F("to", succ),
				obs.F("accused", succ))
		}
	}
}

// serveForAccusation builds and records (but does not send) the Serve for
// a successor that never opened the exchange. Everything travels as full
// payloads: without a KeyResponse there is no buffermap to deduplicate
// against and no prime to attest under.
func (n *Node) serveForAccusation(succ model.NodeID, ex *sendExchange) {
	srv := &wire.Serve{
		Round: n.round,
		From:  n.id,
		To:    succ,
		KPrev: n.sendCur.kPrev.Bytes(),
	}
	for _, it := range n.sendCur.items {
		srv.Full = append(srv.Full, wire.ServedUpdate{Update: it.upd, Count: it.count})
	}
	cipher, err := n.signEncrypt(succ, srv)
	if err != nil {
		return
	}
	ex.served = true
	ex.serveCipher = cipher
}

// onAccusation handles an accusation as a monitor of the accused: it
// relays the exchange to the accused as a Probe and opens a probe record
// that verify() turns into a Nack + Unresponsive verdict if ignored.
func (m *monitorState) onAccusation(msg transport.Message) {
	if m.n.cfg.Behavior.SilentMonitor {
		return
	}
	acc, err := wire.UnmarshalAccusation(msg.Payload)
	if err != nil || acc.From != msg.From {
		return
	}
	if !m.n.verifySigned(acc.From, msg.Payload, acc.Sig, "Accusation") {
		return
	}
	if !m.isMonitorOf(m.n.id, acc.Against, acc.Round) {
		return
	}
	// Only a legitimate predecessor of the accused may accuse.
	if !contains(m.n.sh.Directory.Predecessors(acc.Against, acc.Round), acc.From) {
		m.n.report(Verdict{Round: acc.Round, Kind: VerdictBadMessage,
			Accused: acc.From, Detail: "accusation from a non-predecessor"})
		return
	}
	key := probeKey{accuser: acc.From, accused: acc.Against, round: acc.Round}
	if _, seen := m.probes[key]; seen {
		return
	}
	// Already have the acknowledgement? Then the accuser simply lost it:
	// confirm immediately.
	if ackBytes := m.ackCopyFor(acc.Round, acc.Against, acc.From); len(ackBytes) > 0 {
		m.probes[key] = true
		m.relayAck(acc.Round, acc.From, ackBytes, true)
		return
	}
	m.probes[key] = false
	probe := &wire.Probe{
		Round:       acc.Round,
		From:        m.n.id,
		Origin:      acc.From,
		ServeCipher: acc.ServeCipher,
		AttBytes:    acc.AttBytes,
	}
	m.n.signAndSend(acc.Against, probe)
	if m.n.trace != nil {
		m.n.trace.Emit("probe",
			obs.XID(model.ExchangeID(acc.Round, acc.From, acc.Against)),
			obs.F("round", acc.Round), obs.F("from", acc.From), obs.F("to", acc.Against),
			obs.F("monitor", m.n.id))
	}
}

// onProbe handles a monitor probe as the accused node: it (re-)processes
// the relayed Serve and acknowledges both to the accuser and to the
// probing monitor. A compliant-but-lazy node answers probes — ignoring
// them converts a cheap deviation into an Unresponsive verdict.
func (n *Node) onProbe(msg transport.Message) {
	if n.cfg.Behavior.IgnoreProbes || n.cfg.Behavior.RefuseReceive {
		return
	}
	probe, err := wire.UnmarshalProbe(msg.Payload)
	if err != nil || probe.From != msg.From || probe.Round != n.round {
		return
	}
	if !n.verifySigned(probe.From, msg.Payload, probe.Sig, "Probe") {
		return
	}
	if !n.sh.Directory.IsMonitorOf(probe.From, n.id, probe.Round) {
		return
	}

	ex := n.recvCur.exchanges[probe.Origin]
	if ex == nil || ex.ackBytes == nil {
		// Process the relayed Serve (it is encrypted to this node) and
		// attestation, then acknowledge.
		w := wire.GetWriter()
		defer w.Release() // srv aliases the opened plaintext until here
		plain, err := w.Open(n.cfg.Identity, probe.ServeCipher)
		if err != nil {
			return
		}
		srv, err := wire.UnmarshalServe(plain)
		if err != nil || srv.From != probe.Origin || srv.To != n.id || srv.Round != n.round {
			return
		}
		if !n.verifySigned(srv.From, plain, srv.Sig, "probed Serve") {
			return
		}
		n.processServe(srv)
		ex = n.recvCur.exchanges[probe.Origin]
		if ex != nil && ex.ackBytes == nil && ex.attBytes == nil && len(probe.AttBytes) > 0 {
			if att, err := wire.UnmarshalAttestation(probe.AttBytes); err == nil &&
				att.From == probe.Origin && att.To == n.id && att.Round == n.round &&
				n.suiteVerifySigned(att.From, probe.AttBytes, att.Sig) == nil {
				ex.attBytes = bytes.Clone(probe.AttBytes) // evidence: outlives the delivery
				n.maybeAck(probe.Origin, ex)
			}
		}
		// Even a NoAck deviant yields to a probe (the alternative is a
		// guilty verdict, which a rational selfish node avoids).
		if ex != nil && ex.ackBytes == nil && ex.expEmbed != nil {
			n.sendAck(probe.Origin, ex)
		}
	}
	if ex == nil || ex.ackBytes == nil {
		return
	}
	// Answer the accuser and hand the monitor its copy.
	_ = n.cfg.Endpoint.Send(probe.Origin, wire.KindAck, ex.ackBytes)
	_ = n.cfg.Endpoint.Send(probe.From, wire.KindAckCopy, ex.ackBytes)
	if n.trace != nil {
		n.trace.Emit("probe_answer",
			obs.XID(model.ExchangeID(n.round, probe.Origin, n.id)),
			obs.F("round", n.round), obs.F("from", probe.Origin), obs.F("to", n.id),
			obs.F("monitor", probe.From))
	}
}

// onAckRequest answers a monitor's investigation (§IV-A): exhibit the
// successor's acknowledgement, or the fact that an accusation was raised.
func (n *Node) onAckRequest(msg transport.Message) {
	req, err := wire.UnmarshalAckRequest(msg.Payload)
	if err != nil || req.From != msg.From || req.Round != n.round {
		return
	}
	if !n.verifySigned(req.From, msg.Payload, req.Sig, "AckRequest") {
		return
	}
	if !n.sh.Directory.IsMonitorOf(req.From, n.id, req.Round) {
		return
	}
	exhibit := &wire.AckExhibit{Round: req.Round, From: n.id, Succ: req.Succ}
	if ex := n.sendCur.perSucc[req.Succ]; ex != nil {
		exhibit.AckBytes = ex.ackBytes
		exhibit.Accused = ex.accused
	}
	n.signAndSend(req.From, exhibit)
}

// onAckExhibit stores the investigated node's answer for judgement.
func (m *monitorState) onAckExhibit(msg transport.Message) {
	if m.n.cfg.Behavior.SilentMonitor {
		return
	}
	ex, err := wire.UnmarshalAckExhibit(msg.Payload)
	if err != nil || ex.From != msg.From {
		return
	}
	if !m.n.verifySigned(ex.From, msg.Payload, ex.Sig, "AckExhibit") {
		return
	}
	if !m.isMonitorOf(m.n.id, ex.From, ex.Round) {
		return
	}
	st := m.state(ex.Round, ex.From)
	if st.requested[ex.Succ] && st.exhibits[ex.Succ] == nil {
		// Kept until judgement: detach the evidence from the delivery.
		ex.AckBytes, ex.Sig = bytes.Clone(ex.AckBytes), nil
		st.putExhibit(ex.Succ, ex)
	}
}

func contains(ids []model.NodeID, id model.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
