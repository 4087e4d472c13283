package pag

import (
	"bytes"
	"fmt"

	"repro/internal/acting"
	"repro/internal/core"
	"repro/internal/judicial"
	"repro/internal/model"
	"repro/internal/pki"
	"repro/internal/sim"
	"repro/internal/streaming"
	"repro/internal/transport"
)

// This file wires the two protocol node types into a Session.

// The nodes' verdict sinks all submit into the judicial registry — the
// accountability plane's single pipeline. The registry is safe for the
// engine's worker goroutines, dedupes repeated reports of the
// same fact, and serves every consumer in canonical order, which keeps
// reports byte-identical at any worker count.

// Judicial exposes the session's verdict registry — the deduplicated
// evidence every conviction tally is computed from.
func (s *Session) Judicial() *judicial.Registry { return s.registry }

// Verdicts returns the deduplicated proofs of misbehaviour, whichever
// protocol raised them, in canonical (round, accused, accuser, kind) order
// — a view over the judicial registry.
func (s *Session) Verdicts() []Verdict {
	recs := s.registry.Records()
	out := make([]Verdict, len(recs))
	for i, rec := range recs {
		out[i] = rec.Verdict
	}
	return out
}

// member is a session node of any protocol: what the engine steps and the
// transport delivers to. Code that needs a protocol's own methods gets the
// concrete node by type assertion.
type member interface {
	sim.Protocol
	HandleMessage(transport.Message)
}

// standby is the endpoint of a hosted joiner, registered when the session
// starts rather than at the join round. Sessions in separate processes
// reach a round milliseconds apart: a joiner that only began to listen at
// its own join round had the first requests of peers that got there first
// refused on the wire, and each ended in a probe and a wrong conviction.
// Until the node exists, what arrives waits in early.
type standby struct {
	ep    transport.Endpoint
	node  member
	early []transport.Message
}

func (b *standby) handle(msg transport.Message) {
	if b.node != nil {
		b.node.HandleMessage(msg)
		return
	}
	msg.Payload = bytes.Clone(msg.Payload) // the transport reuses it once the handler returns
	b.early = append(b.early, msg)
}

// addMember attaches hosted node id of the session's protocol, with the
// given identity: it registers the endpoint (unless it is a standby's),
// builds the node, adds it to the engine and gives it a player. Founding
// members and scenario joiners both come through here.
func (s *Session) addMember(id model.NodeID, identity pki.Identity) error {
	var m member
	var ep transport.Endpoint
	var err error
	b := s.standby[id]
	if b != nil {
		ep = b.ep
	} else if ep, err = s.net.Register(id, func(msg transport.Message) { m.HandleMessage(msg) }); err != nil {
		return fmt.Errorf("pag: registering %v: %w", id, err)
	}
	player := streaming.NewPlayer()
	switch s.cfg.Protocol {
	case ProtocolPAG:
		m, err = core.NewNode(core.Config{
			ID:        id,
			Identity:  identity,
			Endpoint:  ep,
			Behavior:  s.cfg.PAGBehaviors[id],
			Shared:    s.shared,
			Verdicts:  func(v judicial.Verdict) { s.registry.Submit(v) },
			OnDeliver: player.OnDeliver,
		})
	case ProtocolAcTinG:
		m, err = acting.NewNode(acting.Config{
			ID:        id,
			Suite:     s.suite,
			Identity:  identity,
			Directory: s.dir,
			Endpoint:  ep,
			Source:    SourceID,
			Intern:    s.intern,
			Verdicts:  func(v judicial.Verdict) { s.registry.Submit(v) },
			OnDeliver: player.OnDeliver,
		})
	default:
		return fmt.Errorf("pag: unknown protocol %v", s.cfg.Protocol)
	}
	if err != nil {
		return fmt.Errorf("pag: %v node %v: %w", s.cfg.Protocol, id, err)
	}
	s.members[id] = m
	s.players[id] = player
	s.engine.Add(m)
	if b != nil {
		delete(s.standby, id)
		b.node = m
		for _, msg := range b.early {
			m.HandleMessage(msg)
		}
		b.early = nil
	}
	return nil
}
