// Package pag is the public face of the PAG reproduction (Decouchant, Ben
// Mokhtar, Petit, Quéma — "PAG: Private and Accountable Gossip", ICDCS
// 2016): an accountable and partially privacy-preserving gossip
// dissemination protocol, its AcTinG and RAC baselines, a round-driven
// simulation engine with byte-exact bandwidth accounting, and the
// evaluation harness reproducing every table and figure of the paper.
//
// Quickstart:
//
//	session, err := pag.NewSession(pag.SessionConfig{
//	        Nodes:      48,
//	        Protocol:   pag.ProtocolPAG,
//	        StreamKbps: 300,
//	})
//	if err != nil { ... }
//	session.Run(20)
//	fmt.Println(session.BandwidthSample().Mean(), "kbps per node")
//
// The heavy lifting lives in the internal packages (see DESIGN.md for the
// inventory); this package wires them into ready-to-run sessions.
package pag

import (
	"fmt"
	"runtime"

	"repro/internal/acting"
	"repro/internal/core"
	"repro/internal/hhash"
	"repro/internal/judicial"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pki"
	"repro/internal/rac"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/streaming"
	"repro/internal/transport"
	"repro/internal/update"
)

// Protocol selects which system a session runs.
type Protocol int

// The three compared systems (§VII).
const (
	// ProtocolPAG is the paper's contribution: accountable and
	// privacy-preserving.
	ProtocolPAG Protocol = iota + 1
	// ProtocolAcTinG is the accountable, non-private baseline.
	ProtocolAcTinG
	// ProtocolRAC is the accountable anonymous-communication baseline.
	ProtocolRAC
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtocolPAG:
		return "PAG"
	case ProtocolAcTinG:
		return "AcTinG"
	case ProtocolRAC:
		return "RAC"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// NodeID re-exports the node identifier type.
type NodeID = model.NodeID

// Behavior re-exports the PAG selfish-deviation knobs.
type Behavior = core.Behavior

// Verdict re-exports PAG's proof-of-misbehaviour type.
type Verdict = core.Verdict

// QueueBacklog re-exports the bandwidth plane's per-node backlog entry
// (EpochStat.QueueDepthByNode elements).
type QueueBacklog = transport.QueueBacklog

// SessionConfig parameterises a simulated session.
type SessionConfig struct {
	// Nodes is the system size, including the source (node 1).
	Nodes int
	// MemberIDs optionally names the members explicitly instead of the
	// dense 1..Nodes numbering — the sampled-cohort scaling mode passes
	// the rendezvous-selected cohort here so full-fidelity nodes keep
	// their global identities. Must include SourceID (1) and, when
	// Nodes is also set, agree with it on the count. Mid-run joiners
	// are numbered from max(MemberIDs)+1.
	MemberIDs []model.NodeID
	// Protocol selects PAG (default), AcTinG or RAC.
	Protocol Protocol
	// StreamKbps is the source bitrate (default 300, the paper's Fig 7).
	StreamKbps int
	// UpdateBytes is the chunk size (default 938, §VII-A).
	UpdateBytes int
	// Fanout / Monitors default to the paper's log10(N) rule with a
	// floor of 3.
	Fanout   int
	Monitors int
	// ModulusBits / PrimeBits size the homomorphic hash (default 512 as
	// in the paper; simulations commonly use 128 for speed — the wire
	// sizes shrink accordingly, so pass 512 for paper-faithful
	// bandwidth numbers).
	ModulusBits int
	PrimeBits   int
	// BuffermapWindow bounds the §V-D buffermap: by default (0) it covers
	// every owned update that has not expired; a positive value also caps
	// the reception age in rounds (4 is the paper's window); negative
	// disables buffermaps — an ablation.
	BuffermapWindow int
	// TTL is the forwarding expiration in rounds (§V-D: "Determining
	// this expiration delay is up to the system designer"). It defaults
	// to model.ForwardingTTL: saturation time plus two rounds of slack.
	TTL model.Round
	// Seed drives the membership assignment.
	Seed uint64
	// MonitorRotationRounds re-draws every monitor set after this many
	// rounds (0 keeps monitors static, the paper's setting). Rotation
	// bounds how long one monitor watches one node; the rotation-round
	// forwarding-check gap it used to open is closed by the obligation
	// handover (see internal/core).
	MonitorRotationRounds int
	// DisableObligationHandover turns the monitor-rotation obligation
	// handover off — the pre-handover protocol, kept as an ablation so
	// the rotation-gap exploit stays demonstrable in tests.
	DisableObligationHandover bool
	// DisableFlyweight detaches the session-wide update-content interner:
	// every node keeps its own payload/signature copies — the pre-flyweight
	// memory representation, kept as an ablation so the bytes/node claim
	// stays measurable and the determinism harness can prove the flyweight
	// changes no observable (determinism_test.go).
	DisableFlyweight bool
	// Judicial arms the accountability plane's punishment loop: nodes
	// reaching the conviction threshold are evicted from the membership
	// and quarantined. The zero value is reporting-only. A scenario with
	// an Eviction block arms the loop too; an explicitly set Judicial
	// wins.
	Judicial judicial.Policy
	// PAGBehaviors / ActingBehaviors / RACBehaviors inject selfish
	// deviations per node for the respective protocol.
	PAGBehaviors    map[model.NodeID]core.Behavior
	ActingBehaviors map[model.NodeID]acting.Behavior
	RACBehaviors    map[model.NodeID]rac.Behavior
	// AuditPeriod tunes the AcTinG baseline (default 5 rounds).
	AuditPeriod int
	// Scenario optionally scripts the session: churn, network faults and
	// adversary activation fire from its timeline at the top of each
	// round (see internal/scenario). Nil runs the static, fault-free
	// population of the paper's baseline measurements.
	Scenario *scenario.Scenario
	// Workers sets how many goroutines step the round engine: 0 or 1 steps
	// every node inline on the calling goroutine, n > 1 shards nodes across
	// n workers and n < 0 across GOMAXPROCS. Every setting produces
	// byte-identical runs from the same seed — the in-memory transport
	// merges traffic in a canonical order at phase barriers — so Workers
	// is purely a wall-clock knob. Sharding needs the in-memory transport:
	// Workers > 1 combined with a NewNetwork that returns anything else is
	// an error.
	Workers int
	// NewNetwork optionally supplies the session's transport (called once
	// per session, so one config can build several sessions on fresh
	// networks). Nil runs the deterministic in-memory MemNet; a TCPNet
	// runs the same session over real sockets with Workers 0 or 1 (its
	// handlers run inside the engine's DeliverAll, on the engine's
	// goroutine). Socket runs trade byte-identical replay for
	// statistical equivalence: the fault plane is consulted in wall-clock
	// send order, not canonical merge order.
	NewNetwork func() transport.FaultyNetwork
	// Obs optionally attaches an observability metrics registry (see
	// internal/obs): the engine, the fault plane, the membership
	// directory, the judicial registry and every PAG node register their
	// instruments into it. Deterministic-class metrics snapshot
	// byte-identically at any worker count; wall-clock durations are
	// quarantined in timed/sched classes outside the determinism
	// boundary. Nil disables instrumentation at the cost of one nil
	// check per event.
	Obs *obs.Registry
	// Trace optionally attaches a structured round-event tracer (JSONL:
	// exchange opens, verdicts, membership epochs, fault-plane queue
	// activity). Tracing is outside the determinism boundary — event
	// ordering follows wall-clock submission order. Nil disables.
	Trace *obs.Tracer
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.Protocol == 0 {
		c.Protocol = ProtocolPAG
	}
	if len(c.MemberIDs) > 0 && c.Nodes == 0 {
		c.Nodes = len(c.MemberIDs)
	}
	if c.StreamKbps == 0 {
		c.StreamKbps = 300
	}
	if c.UpdateBytes == 0 {
		c.UpdateBytes = model.UpdateBytes
	}
	if c.Fanout == 0 {
		c.Fanout = model.FanoutFor(c.Nodes)
	}
	if c.Monitors == 0 {
		c.Monitors = c.Fanout
	}
	if c.ModulusBits == 0 {
		c.ModulusBits = hhash.DefaultModulusBits
	}
	if c.PrimeBits == 0 {
		c.PrimeBits = c.ModulusBits
	}
	if c.TTL == 0 {
		c.TTL = model.ForwardingTTL(c.Nodes, c.Fanout)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Session is a runnable simulated deployment.
type Session struct {
	cfg    SessionConfig
	net    transport.FaultyNetwork
	engine *sim.Engine
	source *streaming.Source

	// registry is the accountability plane's unified verdict pipeline:
	// every protocol's verdict sink submits into it (it is safe for the
	// engine's worker goroutines), duplicates collapse by
	// (accused, accuser, round, kind), and every consumer — views,
	// conviction tallies, per-epoch metrics — reads the deduplicated
	// fact set in canonical order, so nothing depends on append order.
	registry *judicial.Registry
	// bench turns registry tallies into eviction judgments when the
	// configured policy is armed.
	bench *judicial.Bench

	// suite / params / dir are kept for mid-run node construction
	// (scenario joins mint fresh identities against the same PKI and
	// hash parameters).
	suite  pki.Suite
	params hhash.Params
	dir    *membership.Directory
	// shared is the flyweight session plane every PAG node references
	// (one immutable config/roster instead of per-node copies); intern is
	// the session-wide update-content table PAG and AcTinG nodes store
	// through (nil under the DisableFlyweight ablation and for RAC).
	shared *core.Shared
	intern *update.Interner

	pagNodes    map[model.NodeID]*core.Node
	actingNodes map[model.NodeID]*acting.Node
	racNodes    map[model.NodeID]*rac.Node
	players     map[model.NodeID]*streaming.Player

	// Scenario state: the driving timeline (nil without a scenario),
	// join/departure bookkeeping and the epoch marks metrics are sliced
	// by.
	timeline *scenario.Timeline
	nextID   model.NodeID
	// joinedChunk records, per mid-run joiner, how many chunks the
	// source had emitted at join time — the fair continuity baseline.
	joinedChunk map[model.NodeID]uint64
	departed    map[model.NodeID]model.Round
	epochMarks  []epochMark

	// evicted marks ids the punishment loop expelled; unlike other
	// departures they may re-join under the same id once their
	// quarantine expires.
	evicted          map[model.NodeID]bool
	evictions        []Eviction
	rejoinRejections []RejoinRejection
}

// SourceID is the session's source node.
const SourceID = model.NodeID(1)

// NewSession assembles a session over the in-memory network.
func NewSession(cfg SessionConfig) (*Session, error) {
	c := cfg.withDefaults()
	if c.Nodes < c.Fanout+2 {
		return nil, fmt.Errorf("pag: %d nodes too few for fanout %d", c.Nodes, c.Fanout)
	}
	var netw transport.FaultyNetwork
	if c.NewNetwork != nil {
		netw = c.NewNetwork()
	} else {
		netw = transport.NewMemNet()
	}
	// Every error return below must release the transport — a TCP-backed
	// session already holds real listeners once nodes start registering.
	ok := false
	defer func() {
		if !ok {
			_ = netw.Close()
		}
	}()
	// The punishment loop's policy: an explicit Judicial wins, otherwise
	// a scenario's scripted Eviction block arms it.
	policy := c.Judicial
	if !policy.Enabled() && c.Scenario != nil && c.Scenario.Eviction != nil {
		policy = judicial.Policy{
			ConvictionThreshold: c.Scenario.Eviction.ConvictionThreshold,
			QuarantineRounds:    c.Scenario.Eviction.QuarantineRounds,
		}
	}
	s := &Session{
		cfg:         c,
		net:         netw,
		registry:    judicial.NewRegistry(),
		bench:       judicial.NewBench(policy),
		pagNodes:    make(map[model.NodeID]*core.Node),
		actingNodes: make(map[model.NodeID]*acting.Node),
		racNodes:    make(map[model.NodeID]*rac.Node),
		players:     make(map[model.NodeID]*streaming.Player),
		nextID:      model.NodeID(c.Nodes + 1),
		joinedChunk: make(map[model.NodeID]uint64),
		departed:    make(map[model.NodeID]model.Round),
		evicted:     make(map[model.NodeID]bool),
	}
	var err error
	if s.engine, err = sim.NewEngine(s.net, c.Workers); err != nil {
		return nil, fmt.Errorf("pag: %w", err)
	}
	s.engine.Instrument(c.Obs, c.Trace)
	s.net.Faults().SetSeed(c.Seed)
	s.net.Faults().Instrument(c.Obs, c.Trace)
	s.registry.Instrument(c.Obs, c.Trace)
	// The link model's queue-expiry deadline follows the forwarding TTL:
	// bytes still waiting behind an upload cap when their content's
	// playout window closes (§V-D) can no longer help the receiver. A
	// scenario's set_queue_cap events may retune it mid-run.
	s.net.Faults().SetQueueDeadline(int(c.TTL))

	ids := make([]model.NodeID, c.Nodes)
	for i := range ids {
		ids[i] = model.NodeID(i + 1)
	}
	if len(c.MemberIDs) > 0 {
		if len(c.MemberIDs) != c.Nodes {
			return nil, fmt.Errorf("pag: %d explicit member ids but Nodes=%d", len(c.MemberIDs), c.Nodes)
		}
		copy(ids, c.MemberIDs)
		hasSource := false
		var maxID model.NodeID
		for _, id := range ids {
			if id == SourceID {
				hasSource = true
			}
			if id > maxID {
				maxID = id
			}
		}
		if !hasSource {
			return nil, fmt.Errorf("pag: explicit member ids must include the source %v", SourceID)
		}
		s.nextID = maxID + 1
	}
	dir, err := membership.New(ids, membership.Config{
		Seed:                  c.Seed,
		Fanout:                c.Fanout,
		Monitors:              c.Monitors,
		MonitorRotationRounds: c.MonitorRotationRounds,
		Metrics:               c.Obs,
		Trace:                 c.Trace,
	})
	if err != nil {
		return nil, fmt.Errorf("pag: membership: %w", err)
	}
	s.dir = dir

	suite := pki.NewFastSuite()
	var params hhash.Params
	if c.Protocol == ProtocolPAG {
		params, err = hhash.GenerateParams(nil, c.ModulusBits)
		if err != nil {
			return nil, fmt.Errorf("pag: hash parameters: %w", err)
		}
	}
	s.suite = suite
	s.params = params

	// PAG and AcTinG nodes store full update content; one session-wide
	// interner shares it between them (RAC's ring stores too little for it
	// to matter).
	if !c.DisableFlyweight && c.Protocol != ProtocolRAC {
		s.intern = update.NewInterner()
	}
	if c.Protocol == ProtocolPAG {
		s.shared = core.NewShared(core.Config{
			Suite:                suite,
			HashParams:           params,
			Directory:            dir,
			Sources:              []model.NodeID{SourceID},
			PrimeBits:            c.PrimeBits,
			BuffermapWindow:      c.BuffermapWindow,
			NoObligationHandover: c.DisableObligationHandover,
			Metrics:              c.Obs,
			Trace:                c.Trace,
			Intern:               s.intern,
		})
	}

	identities := make(map[model.NodeID]pki.Identity, c.Nodes)
	for _, id := range ids {
		identity, err := suite.NewIdentity(id)
		if err != nil {
			return nil, fmt.Errorf("pag: identity for %v: %w", id, err)
		}
		identities[id] = identity
	}

	var sourceInjector streaming.Injector
	for _, id := range ids {
		player := streaming.NewPlayer(0)
		s.players[id] = player

		switch c.Protocol {
		case ProtocolPAG:
			n, err := s.buildPAGNode(id, suite, identities[id], params, dir, player)
			if err != nil {
				return nil, err
			}
			s.pagNodes[id] = n
			s.engine.Add(n)
			if id == SourceID {
				sourceInjector = n
			}
		case ProtocolAcTinG:
			n, err := s.buildActingNode(id, suite, identities[id], dir, player)
			if err != nil {
				return nil, err
			}
			s.actingNodes[id] = n
			s.engine.Add(n)
			if id == SourceID {
				sourceInjector = n
			}
		case ProtocolRAC:
			n, err := s.buildRACNode(id, suite, identities[id], dir, player)
			if err != nil {
				return nil, err
			}
			s.racNodes[id] = n
			s.engine.Add(n)
			if id == SourceID {
				sourceInjector = n
			}
		default:
			return nil, fmt.Errorf("pag: unknown protocol %v", c.Protocol)
		}
	}

	s.source, err = streaming.NewSource(0, identities[SourceID], sourceInjector,
		c.StreamKbps, c.UpdateBytes, c.TTL)
	if err != nil {
		return nil, fmt.Errorf("pag: source: %w", err)
	}
	s.epochMarks = []epochMark{{start: 1}}

	// The punishment loop runs first at every round top: it judges the
	// evidence of completed rounds, so its evictions land before the
	// scenario's churn (a scripted re-join of a just-evicted id must see
	// the quarantine) and before the source injects.
	if s.bench.Policy().Enabled() {
		s.engine.OnRoundStart(func(r model.Round) { s.applyJudgments(r) })
	}
	// The scenario hook registers next so churn and faults land before
	// the source injects the round's chunks.
	if c.Scenario != nil {
		tl, err := scenario.Compile(*c.Scenario)
		if err != nil {
			return nil, fmt.Errorf("pag: scenario: %w", err)
		}
		s.timeline = tl
		tl.Instrument(c.Trace)
		s.engine.OnRoundStart(func(r model.Round) { tl.Apply(r, s) })
	}
	s.engine.OnRoundStart(func(r model.Round) { _ = s.source.Tick(r) })
	// Prewarm the round's membership view after any scheduled churn has
	// landed, so concurrent node steps hit a read-only snapshot instead
	// of racing to build it.
	s.engine.OnRoundStart(func(r model.Round) { s.dir.View(r) })
	// Expired content leaves the flyweight table at the round top: an
	// expired update can never be served again nor named by a buffermap, so
	// the lift table shared through the table goes with it (store entries
	// keep their aliases alive until each node's own retention GC).
	if s.intern != nil {
		s.engine.OnRoundStart(func(r model.Round) { s.intern.DropExpired(r) })
	}
	// Live heap per member, sampled at each round top. ClassSched: the
	// value is a host artifact (GC timing, allocator state), not a
	// protocol observable — it never enters deterministic snapshots.
	if c.Obs != nil {
		memGauge := c.Obs.GaugeClass("pag_mem_bytes_per_node", obs.ClassSched)
		members := c.Nodes
		s.engine.OnRoundStart(func(model.Round) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			memGauge.Set(int64(ms.HeapAlloc) / int64(members))
		})
	}
	ok = true
	return s, nil
}

// EngineInfo describes the round engine a run executed on. It is run
// metadata, not part of the measured results: byte-identical runs are
// produced at every worker count.
type EngineInfo struct {
	// Workers is the effective worker count (1 when stepping inline).
	Workers int `json:"workers"`
	// Transport is the network the run used ("mem" or "tcp"). Like the
	// rest of this block it is metadata: "mem" runs are byte-identical
	// under a seed, "tcp" runs are statistically equivalent.
	Transport string `json:"transport,omitempty"`
	// ReportDigest, when set by a report writer, is the SHA-256 of the
	// report's deterministic portion (everything except this field's
	// struct) — the value to compare across machines and worker counts.
	ReportDigest string `json:"report_digest,omitempty"`
}

// EngineInfo returns the session's engine metadata.
func (s *Session) EngineInfo() EngineInfo {
	return EngineInfo{Workers: s.engine.Workers(), Transport: s.net.Name()}
}

// Close releases the session's transport (listeners and connections for a
// TCP-backed session; a no-op for the in-memory network). If the session
// was traced, a write error the tracer latched mid-run surfaces here — a
// silently truncated journal would otherwise masquerade as a quiet run.
func (s *Session) Close() error {
	err := s.net.Close()
	if terr := s.cfg.Trace.Err(); terr != nil {
		if err == nil {
			err = fmt.Errorf("pag: trace: %w", terr)
		} else {
			err = fmt.Errorf("%w; trace: %w", err, terr)
		}
	}
	return err
}

// Run advances the session by n rounds.
func (s *Session) Run(n int) { s.engine.Run(n) }

// StartMeasuring begins the steady-state bandwidth window (call after the
// warm-up rounds).
func (s *Session) StartMeasuring() { s.engine.StartMeasuring() }

// Round returns the last completed round.
func (s *Session) Round() model.Round { return s.engine.Round() }

// BandwidthSample returns the per-node bandwidth distribution in kbps over
// the measured window, excluding the source (a client-side metric, as in
// Fig 7).
func (s *Session) BandwidthSample() stats.Sample {
	return s.engine.BandwidthSample(SourceID)
}

// NodeBandwidthKbps returns one node's average bandwidth over the
// measured window in kbps.
func (s *Session) NodeBandwidthKbps(id model.NodeID) float64 {
	return s.engine.NodeBandwidthKbps(id)
}

// Player returns a node's playback metrics.
func (s *Session) Player(id model.NodeID) *streaming.Player { return s.players[id] }

// Emitted returns how many updates the source has released.
func (s *Session) Emitted() uint64 { return s.source.Emitted() }

// MeanContinuity returns the average playback continuity across current
// clients for the chunks whose playout deadline has passed. Departed nodes
// are excluded; a mid-run joiner is measured from its join point (it could
// never have received chunks that expired before it arrived).
func (s *Session) MeanContinuity() float64 {
	// Only chunks released at least TTL rounds ago have reached their
	// deadline.
	due := s.dueThrough(s.engine.Round())
	if due == 0 {
		return 0
	}
	total, count := 0.0, 0
	for _, id := range sortedIDs(s.players) {
		if id == SourceID {
			continue
		}
		if _, gone := s.departed[id]; gone {
			continue
		}
		lo := s.joinedChunk[id] // 0 for founding members
		if lo >= due {
			continue // joined too recently for any fair deadline
		}
		total += float64(s.players[id].DeliveredInRange(lo, due)) / float64(due-lo)
		count++
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// dueThrough returns how many chunks have passed their playout deadline by
// the end of round r.
func (s *Session) dueThrough(r model.Round) uint64 {
	ttl := uint64(s.cfg.TTL)
	if uint64(r) <= ttl {
		return 0
	}
	return (uint64(r) - ttl) * uint64(s.source.PerRound())
}

// QueueStats is a snapshot of the bandwidth plane's link-queue activity:
// how many messages upload caps deferred to later rounds, how many
// expired waiting, and how many are queued right now.
type QueueStats struct {
	// Deferred counts messages the queued link model held back for a
	// later round's budget (cumulative; deferral is delay, not loss).
	Deferred uint64 `json:"deferred"`
	// Expired counts queued messages dropped because they out-aged the
	// queue deadline before their cap released them.
	Expired uint64 `json:"expired"`
	// Depth is the backlog currently waiting across all nodes.
	Depth int `json:"depth"`
}

// QueueStats returns the session's current bandwidth-plane snapshot —
// the measured counterpart of the analytic Table II sustainability test:
// nonzero Deferred under a cap means the link is pacing traffic, nonzero
// Expired means it can no longer keep up within the playout window.
func (s *Session) QueueStats() QueueStats {
	f := s.net.Faults()
	return QueueStats{
		Deferred: f.Deferred(),
		Expired:  f.CapExpired(),
		Depth:    f.QueueDepth(),
	}
}

// ConvictedNodes returns the nodes accused by at least threshold distinct
// verdicts, with their counts — the punishment hook of §II-B ("the
// monitors generate a proof of misbehaviour and the misbehaving nodes get
// punished"). Counts are deduplicated facts: identical verdicts (same
// accused, accuser, round and kind) reported several times — monitor
// retries, re-raised findings — count once. Arm SessionConfig.Judicial
// (or a scenario Eviction block) to turn these tallies into actual
// evictions instead of just surfacing the evidence.
func (s *Session) ConvictedNodes(threshold int) map[model.NodeID]int {
	return s.registry.Convicted(threshold)
}

// PAGNodeStats returns the per-node PAG counters (Table I inputs).
func (s *Session) PAGNodeStats() map[model.NodeID]core.Stats {
	out := make(map[model.NodeID]core.Stats, len(s.pagNodes))
	for id, n := range s.pagNodes {
		out[id] = n.Stats()
	}
	return out
}

// Metrics returns a point-in-time snapshot of the session's observability
// registry (empty if the session was built without one). The snapshot's
// DeterministicText rendering is byte-identical at any worker count for
// the same seed and scenario.
func (s *Session) Metrics() obs.Snapshot { return s.cfg.Obs.Snapshot() }

// Config returns the session's effective configuration.
func (s *Session) Config() SessionConfig { return s.cfg }
