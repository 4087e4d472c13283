package core

import (
	"bytes"

	"repro/internal/hhash"
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
	for i := range n.recv.preds {
		ex := &n.recv.preds[i]
		if ex.prime.IsZero() || ex.ackBytes == nil || ex.attBytes == nil || ex.reported {
			continue
		}
		ex.reported = true
		pred := ex.pred
		d := designatedMonitor(monitors, pred, r)

		// Message 6: the raw signed Ack.
		_ = transport.SendLent(n.cfg.Endpoint, wire.KindAckCopy, ex.ackBytes, d)

		// Message 7: attestation + remainder, encrypted to the monitor
		// so eavesdroppers never see prime products.
		n.out.attForward = wire.AttForward{
			Round:     r,
			From:      n.id,
			AttBytes:  ex.attBytes,
			Remainder: n.recv.remainderFor(pred).Bytes(),
		}
		n.signEncryptSend(d, &n.out.attForward, wire.KindAttForward)
		n.out.attForward = wire.AttForward{}
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
	var fwd hhash.Fold
	for i := range n.recv.preds {
		// Only an exchange with a prime is ever reported.
		if ex := &n.recv.preds[i]; ex.reported && ex.served {
			n.hasher.MulFold(&fwd, &ex.fwd)
		}
	}
	n.out.values = n.out.values[:0]
	enc, err := n.encodeValue(n.hasher.LiftFold(&n.lifted, n.recv.productKey(), &fwd))
	if err != nil {
		return
	}
	n.out.digest = wire.NodeDigest{Round: r, From: n.id, HFwd: enc}
	n.signAndSendAll(monitors, &n.out.digest)
	n.out.digest = wire.NodeDigest{}
}

// raiseAccusations runs in MidRound on the sender side: every served but
// unacknowledged successor is reported to its monitors with the encrypted
// Serve and the attestation, so the monitors can replay the exchange
// ("sending to nodes in M(B) the update u, and making them forward it to
// node B and ask for an acknowledgement", §IV-A). The Serve is sealed
// again from what the exchange recorded: the same plaintext as the one
// served, under a fresh encryption nonce.
func (n *Node) raiseAccusations(r model.Round) {
	for i := range n.send.succs {
		ex := &n.send.succs[i]
		if ex.skipped || ex.acked || ex.accused {
			continue
		}
		succ := ex.succ
		if !ex.served {
			// The successor never answered the KeyRequest, so the
			// exchange could not even start: the Serve goes to the
			// monitors only, so they can deliver it (§IV-A). It
			// carries every item of the forward set in full: without
			// a KeyResponse there is no buffermap to deduplicate
			// against and no prime to attest under.
			ex.served, ex.nServed, ex.refs = true, len(n.send.items), ex.refs[:0]
		}
		acc := &wire.Accusation{
			Round:    r,
			From:     n.id,
			Against:  succ,
			AttBytes: ex.attBytes,
		}
		if err := n.sealServe(n.serveOf(succ, ex), func(cipher []byte) {
			acc.ServeCipher = cipher
			n.signAndSendAll(n.sh.Directory.Monitors(succ, r), acc)
		}); err != nil {
			continue
		}
		ex.accused = true
		n.stats.AccusationsSent++
		if n.trace != nil {
			n.trace.Emit("accusation",
				obs.XID(model.ExchangeID(r, n.id, succ)),
				obs.F("round", r), obs.F("from", n.id), obs.F("to", succ),
				obs.F("accused", succ))
		}
	}
}

// onAccusation handles an accusation as a monitor of the accused: it
// relays the exchange to the accused as a Probe and opens a probe record
// that verify() turns into a Nack + Unresponsive verdict if ignored.
func (m *monitorState) onAccusation(acc *wire.Accusation) {
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
func (n *Node) onProbe(probe *wire.Probe) {
	ex := n.recv.exchange(probe.Origin)
	if ex == nil || ex.ackBytes == nil {
		// Process the relayed Serve (it is encrypted to this node) and
		// attestation, then acknowledge.
		srv := carried(probe.Origin, n.round, probe.ServeCipher)
		defer srv.release()
		if !n.accept(&probedServe, &srv) {
			return
		}
		// A Serve that fails its checks is not stored, but the probe is
		// still answered for an exchange this node already holds.
		if n.vet(probedServe.checks, &srv) {
			n.processServe(srv.m.(*wire.Serve), srv.key)
		}
		ex = n.recv.exchange(probe.Origin)
		if ex != nil && ex.ackBytes == nil && ex.attBytes == nil && len(probe.AttBytes) > 0 {
			att := carried(probe.Origin, n.round, probe.AttBytes)
			defer att.release()
			if n.admit(&probedAttestation, &att) {
				ex.attBytes = n.keep(probe.AttBytes) // evidence: outlives the delivery
				n.maybeAck(probe.Origin, ex)
			}
		}
		// Even a NoAck deviant yields to a probe (the alternative is a
		// guilty verdict, which a rational selfish node avoids).
		if ex != nil && ex.ackBytes == nil && ex.served {
			n.sendAck(probe.Origin, ex)
		}
	}
	if ex == nil || ex.ackBytes == nil {
		return
	}
	// Answer the accuser and hand the monitor its copy.
	_ = transport.SendLent(n.cfg.Endpoint, wire.KindAck, ex.ackBytes, probe.Origin)
	_ = transport.SendLent(n.cfg.Endpoint, wire.KindAckCopy, ex.ackBytes, probe.From)
	if n.trace != nil {
		n.trace.Emit("probe_answer",
			obs.XID(model.ExchangeID(n.round, probe.Origin, n.id)),
			obs.F("round", n.round), obs.F("from", probe.Origin), obs.F("to", n.id),
			obs.F("monitor", probe.From))
	}
}

// onAckRequest answers a monitor's investigation (§IV-A): exhibit the
// successor's acknowledgement, or the fact that an accusation was raised.
func (n *Node) onAckRequest(req *wire.AckRequest) {
	exhibit := &wire.AckExhibit{Round: req.Round, From: n.id, Succ: req.Succ}
	if ex := n.send.exchange(req.Succ); ex != nil {
		exhibit.AckBytes = ex.ackBytes
		exhibit.Accused = ex.accused
	}
	n.signAndSend(req.From, exhibit)
}

// onAckExhibit stores the investigated node's answer for judgement.
func (m *monitorState) onAckExhibit(ex *wire.AckExhibit) {
	if p := m.state(ex.Round, ex.From).find(ex.Succ); p != nil && p.requested && p.exhibit == nil {
		// Kept until judgement: copy the evidence out of the delivery.
		p.exhibit = &exhibit{ack: bytes.Clone(ex.AckBytes), accused: ex.Accused}
	}
}
