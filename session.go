package pag

import (
	"fmt"

	"repro/internal/acting"
	"repro/internal/core"
	"repro/internal/hhash"
	"repro/internal/judicial"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/pki"
	"repro/internal/rac"
	"repro/internal/streaming"
	"repro/internal/transport"
)

// This file wires the three protocol node types into a Session.

// The nodes' verdict sinks all submit into the judicial registry — the
// accountability plane's single pipeline. The registry is safe for the
// engine's worker goroutines, dedupes repeated reports of the
// same fact, and serves every consumer in canonical order, which keeps
// reports byte-identical at any worker count.

// Judicial exposes the session's verdict registry — the deduplicated
// evidence every conviction tally is computed from.
func (s *Session) Judicial() *judicial.Registry { return s.registry }

// PAGVerdicts returns the deduplicated PAG proofs of misbehaviour in
// canonical (round, accused, accuser, kind) order — a view over the
// judicial registry.
func (s *Session) PAGVerdicts() []core.Verdict {
	var out []core.Verdict
	for _, rec := range s.registry.Records() {
		if v, ok := rec.Evidence.(core.Verdict); ok {
			out = append(out, v)
		}
	}
	return out
}

// ActingVerdicts returns the deduplicated AcTinG audit findings in
// canonical order — a view over the judicial registry.
func (s *Session) ActingVerdicts() []acting.Verdict {
	var out []acting.Verdict
	for _, rec := range s.registry.Records() {
		if v, ok := rec.Evidence.(acting.Verdict); ok {
			out = append(out, v)
		}
	}
	return out
}

// RACVerdicts returns the deduplicated RAC accountability findings in
// canonical order — a view over the judicial registry.
func (s *Session) RACVerdicts() []rac.Verdict {
	var out []rac.Verdict
	for _, rec := range s.registry.Records() {
		if v, ok := rec.Evidence.(rac.Verdict); ok {
			out = append(out, v)
		}
	}
	return out
}

func (s *Session) buildPAGNode(id model.NodeID, suite pki.Suite, identity pki.Identity,
	params hhash.Params, dir *membership.Directory, player *streaming.Player) (*core.Node, error) {
	var node *core.Node
	ep, err := s.net.Register(id, func(m transport.Message) { node.HandleMessage(m) })
	if err != nil {
		return nil, fmt.Errorf("pag: registering %v: %w", id, err)
	}
	node, err = core.NewNode(core.Config{
		ID:        id,
		Identity:  identity,
		Endpoint:  ep,
		IsSource:  id == SourceID,
		Behavior:  s.cfg.PAGBehaviors[id],
		CoeffRand: core.SeededCoeffs(s.cfg.Seed, id),
		Shared:    s.shared,
		Verdicts:  func(v core.Verdict) { s.registry.Submit(v) },
		OnDeliver: player.OnDeliver,
	})
	if err != nil {
		return nil, fmt.Errorf("pag: node %v: %w", id, err)
	}
	return node, nil
}

func (s *Session) buildActingNode(id model.NodeID, suite pki.Suite, identity pki.Identity,
	dir *membership.Directory, player *streaming.Player) (*acting.Node, error) {
	var node *acting.Node
	ep, err := s.net.Register(id, func(m transport.Message) { node.HandleMessage(m) })
	if err != nil {
		return nil, fmt.Errorf("pag: registering %v: %w", id, err)
	}
	node, err = acting.NewNode(acting.Config{
		ID:          id,
		Suite:       suite,
		Identity:    identity,
		Directory:   dir,
		Endpoint:    ep,
		Sources:     []model.NodeID{SourceID},
		Intern:      s.intern,
		AuditPeriod: s.cfg.AuditPeriod,
		Behavior:    s.cfg.ActingBehaviors[id],
		Verdicts:    func(v acting.Verdict) { s.registry.Submit(v) },
		OnDeliver:   player.OnDeliver,
	})
	if err != nil {
		return nil, fmt.Errorf("pag: acting node %v: %w", id, err)
	}
	return node, nil
}

func (s *Session) buildRACNode(id model.NodeID, suite pki.Suite, identity pki.Identity,
	dir *membership.Directory, player *streaming.Player) (*rac.Node, error) {
	var node *rac.Node
	ep, err := s.net.Register(id, func(m transport.Message) { node.HandleMessage(m) })
	if err != nil {
		return nil, fmt.Errorf("pag: registering %v: %w", id, err)
	}
	node, err = rac.NewNode(rac.Config{
		ID:        id,
		Suite:     suite,
		Identity:  identity,
		Directory: dir,
		Endpoint:  ep,
		Sources:   []model.NodeID{SourceID},
		SlotBytes: s.cfg.UpdateBytes,
		Behavior:  s.cfg.RACBehaviors[id],
		Verdicts:  func(v rac.Verdict) { s.registry.Submit(v) },
		OnDeliver: player.OnDeliver,
	})
	if err != nil {
		return nil, fmt.Errorf("pag: rac node %v: %w", id, err)
	}
	return node, nil
}
