// Package pag is the public face of the PAG reproduction (Decouchant, Ben
// Mokhtar, Petit, Quéma — "PAG: Private and Accountable Gossip", ICDCS
// 2016): an accountable and partially privacy-preserving gossip
// dissemination protocol, its AcTinG baseline, a round-driven
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
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hhash"
	"repro/internal/judicial"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pki"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/streaming"
	"repro/internal/transport"
	"repro/internal/update"
)

// Protocol selects which system a session runs.
type Protocol int

// The systems a session runs (§VII). The paper's third, RAC, is not run:
// Table II prices it with the calibrated model analytic.RACPerNodeKbps.
const (
	// ProtocolPAG is the paper's contribution: accountable and
	// privacy-preserving.
	ProtocolPAG Protocol = iota + 1
	// ProtocolAcTinG is the accountable, non-private baseline.
	ProtocolAcTinG
)

// allProtocols lists every Protocol, in report order.
var allProtocols = []Protocol{ProtocolPAG, ProtocolAcTinG}

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtocolPAG:
		return "PAG"
	case ProtocolAcTinG:
		return "AcTinG"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// ParseProtocol is the case-insensitive inverse of Protocol.String. It
// knows no "all": RunScenarioReport runs every protocol when given none.
func ParseProtocol(name string) (Protocol, error) {
	for _, p := range allProtocols {
		if strings.EqualFold(name, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown protocol %q (pag|acting|all)", name)
}

// NodeID re-exports the node identifier type.
type NodeID = model.NodeID

// Behavior re-exports the PAG selfish-deviation knobs.
type Behavior = core.Behavior

// Verdict re-exports the proof-of-misbehaviour type every protocol raises.
type Verdict = judicial.Verdict

// QueueBacklog re-exports the bandwidth plane's per-node backlog entry
// (EpochStat.QueueDepthByNode elements).
type QueueBacklog = transport.QueueBacklog

// SessionConfig parameterises a simulated session.
type SessionConfig struct {
	// Nodes is the system size, including the source (node 1).
	Nodes int
	// Protocol selects PAG (default) or AcTinG.
	Protocol Protocol
	// StreamKbps is the source bitrate (default 300, the paper's Fig 7).
	StreamKbps int
	// UpdateBytes is the chunk size (default 938, §VII-A).
	UpdateBytes int
	// Fanout / Monitors default to the paper's log10(N) rule with a
	// floor of 3.
	Fanout   int
	Monitors int
	// ModulusBits sizes the homomorphic hash modulus and, as in §VII-A,
	// the per-exchange primes (default 512 as in the paper; simulations
	// commonly use 128 for speed — the wire sizes shrink accordingly, so
	// pass 512 for paper-faithful bandwidth numbers).
	ModulusBits int
	// TTL is the forwarding expiration in rounds (§V-D: "Determining
	// this expiration delay is up to the system designer"). It defaults
	// to model.ForwardingTTL: saturation time plus two rounds of slack.
	TTL model.Round
	// Seed drives the membership assignment, every node's identity keys,
	// the homomorphic hash modulus and the fault plane's decisions, so
	// sessions over one roster with one seed agree on all of them.
	Seed uint64
	// PAGBehaviors injects selfish PAG deviations per node (any protocol's
	// node takes one later through Session.SetBehavior).
	PAGBehaviors map[model.NodeID]core.Behavior
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
	// goroutine). A socket run reports what the MemNet run reports, scripted
	// loss included: the fault plane decides by the message, not by the
	// wall-clock order in which the sockets admit it.
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
	// Hosted names the nodes this session builds and steps (nil = all):
	// founding members or future joiners. Every other id is
	// directory-only — it joins, leaves and crashes in the membership,
	// and a scenario's events against it are validated, but its node runs
	// elsewhere, in another session over the same roster (one process of
	// a multi-process deployment each). Key material and the hash modulus
	// are pure functions of Seed, so such sessions agree on both.
	Hosted []model.NodeID

	// noIntern detaches the session-wide update-content interner, so every
	// node keeps private payload/signature copies. Only the determinism
	// harness sets it, to prove the interner changes no observable
	// (determinism_test.go).
	noIntern bool
}

// UseNetwork points c at the transport a command names: "mem" (or "")
// keeps the deterministic in-memory network, "tcp" runs every node over
// real loopback sockets — each on an ephemeral 127.0.0.1 port, so churn
// joins register live endpoints mid-run — stepped by the inline engine,
// which sockets need. Either gives the same report under a seed.
func (c *SessionConfig) UseNetwork(kind string) error {
	switch strings.ToLower(kind) {
	case "mem", "":
	case "tcp":
		c.Workers = 0
		c.NewNetwork = func() transport.FaultyNetwork {
			tn := transport.NewTCPNet(nil)
			tn.SetDynamic("127.0.0.1")
			tn.SetStepped(2 * time.Second)
			return tn
		}
	default:
		return fmt.Errorf("unknown transport %q (mem|tcp)", kind)
	}
	return nil
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.Protocol == 0 {
		c.Protocol = ProtocolPAG
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
	// hosted is the set of ids this session builds nodes for (nil: all);
	// perRound the chunks the source releases each round, hosted or not.
	hosted   map[model.NodeID]bool
	perRound int

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

	// suite / dir are kept for mid-run node construction. Every member's
	// key material derives from the session seed and its id, hosted or
	// not, so sessions sharing a seed verify each other's nodes.
	suite *pki.FastSuite
	dir   *membership.Directory
	// shared is the flyweight session plane every PAG node references
	// (one immutable config/roster instead of per-node copies; nil for
	// AcTinG); intern is the session-wide update-content table PAG and
	// AcTinG nodes store through (nil under SessionConfig.noIntern).
	shared *core.Shared
	intern *update.Interner

	// members holds every hosted node the session ever attached, departed
	// ones included (their counters and behaviour stay readable); players
	// their playback metrics. addMember fills both.
	members map[model.NodeID]member
	players map[model.NodeID]*streaming.Player
	// standby holds the endpoints of hosted joiners not yet joined.
	standby map[model.NodeID]*standby

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

// NewSession assembles a session of cfg.Protocol over the transport
// cfg.NewNetwork supplies — a MemNet when it is nil; a TCPNet runs the same
// session over real sockets — and builds the nodes it hosts (all of them
// unless cfg.Hosted names some).
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
	// The punishment loop's policy: a scenario's scripted Eviction block
	// arms it; without one the session only reports.
	var policy judicial.Policy
	if c.Scenario != nil && c.Scenario.Eviction != nil {
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
		members:     make(map[model.NodeID]member),
		players:     make(map[model.NodeID]*streaming.Player),
		standby:     make(map[model.NodeID]*standby),
		nextID:      model.NodeID(c.Nodes + 1),
		joinedChunk: make(map[model.NodeID]uint64),
		departed:    make(map[model.NodeID]model.Round),
		evicted:     make(map[model.NodeID]bool),
		perRound:    streaming.PerRound(c.StreamKbps, c.UpdateBytes),
	}
	if c.Hosted != nil {
		s.hosted = make(map[model.NodeID]bool, len(c.Hosted))
		for _, id := range c.Hosted {
			s.hosted[id] = true
		}
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
	dir, err := membership.New(ids, membership.Config{
		Seed:     c.Seed,
		Fanout:   c.Fanout,
		Monitors: c.Monitors,
		Metrics:  c.Obs,
		Trace:    c.Trace,
	})
	if err != nil {
		return nil, fmt.Errorf("pag: membership: %w", err)
	}
	s.dir = dir

	s.suite = pki.NewFastSuite()
	// PAG and AcTinG nodes store full update content; one session-wide
	// interner shares it between them.
	if !c.noIntern {
		s.intern = update.NewInterner()
	}
	if c.Protocol == ProtocolPAG {
		params, err := hhash.GenerateParams(&model.SplitMix64{State: c.Seed}, c.ModulusBits)
		if err != nil {
			return nil, fmt.Errorf("pag: hash parameters: %w", err)
		}
		s.shared = core.NewShared(core.Shared{
			Suite:      s.suite,
			HashParams: params,
			Directory:  dir,
			Source:     SourceID,
			Metrics:    c.Obs,
			Trace:      c.Trace,
			Intern:     s.intern,
		})
	}

	identities := make(map[model.NodeID]pki.Identity, c.Nodes)
	for _, id := range ids {
		if identities[id], err = s.suite.NewDeterministicIdentity(id, c.Seed); err != nil {
			return nil, fmt.Errorf("pag: identity for %v: %w", id, err)
		}
	}
	for _, id := range ids {
		if s.hosts(id) {
			if err := s.addMember(id, identities[id]); err != nil {
				return nil, err
			}
		}
	}
	for _, id := range c.Hosted {
		if _, founder := identities[id]; !founder && s.standby[id] == nil {
			b := &standby{}
			if b.ep, err = s.net.Register(id, b.handle); err != nil {
				return nil, fmt.Errorf("pag: registering %v: %w", id, err)
			}
			s.standby[id] = b
		}
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
	if s.hosts(SourceID) {
		source, err := streaming.NewSource(identities[SourceID], s.members[SourceID].(streaming.Injector),
			c.StreamKbps, c.UpdateBytes, c.TTL)
		if err != nil {
			return nil, fmt.Errorf("pag: source: %w", err)
		}
		s.engine.OnRoundStart(func(r model.Round) { _ = source.Tick(r) })
	}
	// Prewarm the round's membership view after any scheduled churn has
	// landed, so concurrent node steps hit a read-only snapshot instead
	// of racing to build it.
	s.engine.OnRoundStart(func(r model.Round) { s.dir.View(r) })
	// Expired content leaves the flyweight table at the round top: an
	// expired update can never be served again nor named by a buffermap
	// (store entries keep their aliases alive until each node's own
	// retention GC).
	if s.intern != nil {
		s.engine.OnRoundStart(func(r model.Round) { s.intern.DropExpired(r) })
	}
	ok = true
	return s, nil
}

// hosts reports whether this session builds and steps node id.
func (s *Session) hosts(id model.NodeID) bool { return s.hosted == nil || s.hosted[id] }

// EngineInfo describes the round engine a run executed on. It is run
// metadata, not part of the measured results: byte-identical runs are
// produced at every worker count.
type EngineInfo struct {
	// Workers is the effective worker count (1 when stepping inline).
	Workers int `json:"workers"`
	// Transport is the network the run used ("mem" or "tcp"). Like the
	// rest of this block it is metadata: a run gives the same report on
	// either.
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

// RunPaced advances the session by n rounds on a wall-clock schedule —
// round r begins at start + (r−1)·period — through the same phases as Run
// (see sim.Engine.RunPaced): how the sessions of a multi-process
// deployment keep in step. On the in-memory network it runs as Run.
func (s *Session) RunPaced(n int, start time.Time, period time.Duration) {
	for i := 0; i < n; i++ {
		s.engine.RunPaced(start, period)
	}
}

// PacedOverruns returns how many phase steps of the session's paced rounds
// finished past their deadline. An overrun delays the messages of the
// phase that follows, so verdicts raised in an overrunning round may judge
// a slow host rather than a deviant node.
func (s *Session) PacedOverruns() int { return s.engine.PacedOverruns() }

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

// Emitted returns how many updates the source has released: its
// per-round count over the completed rounds, wherever the source runs.
func (s *Session) Emitted() uint64 { return uint64(s.perRound) * uint64(s.engine.Round()) }

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
		if c, ok := s.continuity(id, 0, due); ok {
			total += c
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// continuity returns a node's delivered ratio over the chunks [lo, hi),
// counted from no earlier than the chunk it joined at (0 for founding
// members: a joiner could never have received what expired before it
// arrived). ok is false when that window is empty or the node has no
// player.
func (s *Session) continuity(id model.NodeID, lo, hi uint64) (float64, bool) {
	p := s.players[id]
	lo = max(lo, s.joinedChunk[id])
	if p == nil || hi <= lo {
		return 0, false
	}
	return float64(p.DeliveredInRange(lo, hi)) / float64(hi-lo), true
}

// dueThrough returns how many chunks have passed their playout deadline by
// the end of round r.
func (s *Session) dueThrough(r model.Round) uint64 {
	ttl := uint64(s.cfg.TTL)
	if uint64(r) <= ttl {
		return 0
	}
	return (uint64(r) - ttl) * uint64(s.perRound)
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
// retries, re-raised findings — count once. Arm a scenario Eviction block
// to turn these tallies into actual evictions instead of just surfacing
// the evidence.
func (s *Session) ConvictedNodes(threshold int) map[model.NodeID]int {
	return s.registry.Convicted(threshold)
}

// PAGNodeStats returns the per-node PAG counters (Table I inputs).
func (s *Session) PAGNodeStats() map[model.NodeID]core.Stats {
	out := make(map[model.NodeID]core.Stats)
	for id, m := range s.members {
		if n, ok := m.(*core.Node); ok {
			out[id] = n.Stats()
		}
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
