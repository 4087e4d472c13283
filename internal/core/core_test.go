package core_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hhash"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/pki"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/update"
)

// harness assembles a complete PAG session over the in-memory network with
// small crypto parameters (128-bit modulus/primes) for test speed; the
// protocol logic is identical to the paper's 512-bit setting.
type harness struct {
	t          *testing.T
	suite      *pki.FastSuite
	params     hhash.Params
	dir        *membership.Directory
	net        *transport.MemNet
	engine     *sim.Engine
	workers    int // > 1: the engine shards across that many workers
	nodes      map[model.NodeID]*core.Node
	identities map[model.NodeID]pki.Identity
	gen        *update.Generator
	source     model.NodeID
	verdictMu  sync.Mutex // the engine's shards share the sink
	verdicts   []core.Verdict
	perRound   int // updates injected per round
	ttl        model.Round
	// deliver, when set, replaces the plain handler call for every
	// delivered message (tests wrap or perturb deliveries with it).
	deliver func(n *core.Node, m transport.Message)
}

type harnessOpt func(*harness, *core.Config)

func withBehavior(id model.NodeID, b core.Behavior) harnessOpt {
	return func(h *harness, cfg *core.Config) {
		if cfg.ID == id {
			cfg.Behavior = b
		}
	}
}

func withBuffermapWindow(w int) harnessOpt {
	return func(_ *harness, cfg *core.Config) { cfg.BuffermapWindow = w }
}

// withWorkers shards the session's engine across k workers.
func withWorkers(k int) harnessOpt {
	return func(h *harness, _ *core.Config) { h.workers = k }
}

func withTTL(ttl model.Round) harnessOpt {
	return func(h *harness, _ *core.Config) { h.ttl = ttl }
}

func newHarness(t *testing.T, n, perRound int, opts ...harnessOpt) *harness {
	t.Helper()
	h := &harness{
		t:          t,
		suite:      pki.NewFastSuite(),
		net:        transport.NewMemNet(),
		nodes:      make(map[model.NodeID]*core.Node),
		identities: make(map[model.NodeID]pki.Identity),
		source:     1,
		perRound:   perRound,
		ttl:        model.PlayoutDelayRounds,
	}
	var err error
	h.params, err = hhash.GenerateParams(nil, 128)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]model.NodeID, n)
	for i := range ids {
		ids[i] = model.NodeID(i + 1)
	}
	h.dir, err = membership.New(ids, membership.Config{Seed: 42, Fanout: 3, Monitors: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Apply harness-level options (TTL, workers) before the engine and the
	// generator are built.
	probe := core.Config{}
	for _, opt := range opts {
		opt(h, &probe)
	}
	if h.engine, err = sim.NewEngine(h.net, h.workers); err != nil {
		t.Fatal(err)
	}

	for _, id := range ids {
		identity, err := h.suite.NewIdentity(id)
		if err != nil {
			t.Fatal(err)
		}
		h.identities[id] = identity

		cfg := core.Config{
			ID:         id,
			Suite:      h.suite,
			Identity:   identity,
			HashParams: h.params,
			Directory:  h.dir,
			Sources:    []model.NodeID{h.source},
			IsSource:   id == h.source,
			PrimeBits:  128,
			Verdicts: func(v core.Verdict) {
				h.verdictMu.Lock()
				h.verdicts = append(h.verdicts, v)
				h.verdictMu.Unlock()
			},
		}
		for _, opt := range opts {
			opt(h, &cfg)
		}

		var node *core.Node
		ep, err := h.net.Register(id, func(m transport.Message) {
			if h.deliver != nil {
				h.deliver(node, m)
			} else {
				node.HandleMessage(m)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Endpoint = ep
		node, err = core.NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h.nodes[id] = node
		h.engine.Add(node)
	}

	h.gen, err = update.NewGenerator(0, h.identities[h.source], 64, h.ttl)
	if err != nil {
		t.Fatal(err)
	}
	h.engine.OnRoundStart(h.inject)
	return h
}

// inject hands round r's freshly minted updates to the source.
func (h *harness) inject(r model.Round) {
	if h.perRound == 0 {
		return
	}
	us, err := h.gen.Emit(r, h.perRound)
	if err != nil {
		h.t.Fatalf("emit: %v", err)
	}
	h.nodes[h.source].InjectUpdates(us)
}

// runRound drives round r by hand through every step the engine runs, in
// its order: the source's injection, BeginRound, exchange slots 1 to f−1,
// MidRound, EndRound, CloseRound. phase runs one step — it decides which
// node takes it when, and when traffic is delivered. Tests that step nodes
// themselves go through here, so there is one place to forget a step
// (TestPhaseSkewTolerance fails with WrongForward when the slots are).
func (h *harness) runRound(r model.Round, phase func(step func(*core.Node))) {
	h.inject(r)
	phase(func(n *core.Node) { n.BeginRound(r) })
	for k := 1; k < h.dir.Fanout(); k++ {
		phase(func(n *core.Node) { n.OpenSlot(r, k) })
	}
	phase(func(n *core.Node) { n.MidRound(r) })
	phase(func(n *core.Node) { n.EndRound(r) })
	phase(func(n *core.Node) { n.CloseRound(r) })
}

// verdictsAgainst filters verdicts by accused node.
func (h *harness) verdictsAgainst(id model.NodeID) []core.Verdict {
	var out []core.Verdict
	for _, v := range h.verdicts {
		if v.Accused == id {
			out = append(out, v)
		}
	}
	return out
}

func (h *harness) hasVerdict(id model.NodeID, kind core.VerdictKind) bool {
	for _, v := range h.verdictsAgainst(id) {
		if v.Kind == kind {
			return true
		}
	}
	return false
}

// requireNoVerdictsExcept fails if any verdict targets a node other than
// the allowed set.
func (h *harness) requireNoVerdictsExcept(allowed ...model.NodeID) {
	h.t.Helper()
	ok := make(map[model.NodeID]bool, len(allowed))
	for _, id := range allowed {
		ok[id] = true
	}
	for _, v := range h.verdicts {
		if !ok[v.Accused] {
			h.t.Fatalf("unexpected verdict: %v", v)
		}
	}
}

// deliveredAt returns how many updates node id has delivered.
func (h *harness) deliveredAt(id model.NodeID) uint64 {
	return h.nodes[id].Stats().UpdatesDelivered
}
