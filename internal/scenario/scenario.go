// Package scenario is a declarative, deterministic scenario engine for
// simulated sessions: it drives a run through a scripted timeline of churn
// (joins, graceful leaves, crashes — either listed explicitly or generated
// from a rate/distribution spec), network conditions (uniform and per-link
// loss, partitions that open and heal, per-node upload caps) and adversary
// activation (flipping a node's behaviour to a deviation profile at a
// chosen round).
//
// PAG assumes a dynamic membership substrate (§III: "a membership
// protocol, e.g., Fireflies, provides nodes with successors and monitors
// per round") and was evaluated under live-streaming conditions; this
// package makes those conditions scriptable. Everything is seed-driven —
// no wall clock, no global randomness — so the same scenario under the
// same seed replays byte-identically.
//
// The package is pure data + scheduling: it never touches protocol state
// itself. A session exposes the Applier surface; Timeline.Apply fires the
// due events into it at the top of each round.
package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/obs"
)

// Action enumerates the scripted event types.
type Action string

// The scripted event vocabulary.
const (
	// ActionJoin adds a member (Node, or a session-assigned fresh id
	// when Node is zero).
	ActionJoin Action = "join"
	// ActionLeave removes a member gracefully: membership re-draws at
	// the same round, so no obligations point at the departed node.
	ActionLeave Action = "leave"
	// ActionCrash fail-stops a member: it goes silent immediately, but
	// the membership only removes it LingerRounds later — until then,
	// monitors see an unresponsive node (and may well convict it: a
	// crash is observationally a refusal to participate).
	ActionCrash Action = "crash"
	// ActionSetLoss sets the per-attempt message-loss probability, in
	// [0, 1). Lost attempts are retransmitted on the reliable channel, so
	// loss costs bytes, not messages; a link that never delivers is a
	// partition.
	ActionSetLoss Action = "set_loss"
	// ActionPartition splits the network into Groups (nodes listed in no
	// group form one implicit extra group).
	ActionPartition Action = "partition"
	// ActionHeal removes the partition.
	ActionHeal Action = "heal"
	// ActionSetUploadCap caps a node's upload at CapKbps (0 removes).
	// Caps are the transport's queued link model: over-budget messages
	// defer to later rounds, paced by the cap, and expire past the queue
	// deadline.
	ActionSetUploadCap Action = "set_upload_cap"
	// ActionSetQueueCap is the link-model form of the upload cap: it caps
	// Node at CapKbps (zero Node caps every current non-source member —
	// the whole-population sweeps of the capacity-cliff scenario) and
	// optionally retunes the queue deadline via DeadlineRounds. Sessions
	// open a measurement epoch at each firing, so reports slice
	// continuity and queue pressure per capacity level.
	ActionSetQueueCap Action = "set_queue_cap"
	// ActionSetBehavior flips a node's deviation profile.
	ActionSetBehavior Action = "set_behavior"
)

// BehaviorProfile is a protocol-agnostic deviation profile; each protocol
// maps it onto its own Behavior knobs.
type BehaviorProfile string

// The profiles every protocol can express.
const (
	// ProfileCorrect restores full protocol compliance.
	ProfileCorrect BehaviorProfile = "correct"
	// ProfileFreeRider consumes the stream but shirks upload work
	// (PAG: skip serves; AcTinG: never propose; RAC: drop relays).
	ProfileFreeRider BehaviorProfile = "free-rider"
	// ProfileColluder keeps forwarding data but sabotages the
	// accountability infrastructure (PAG: silent monitor + no reports;
	// AcTinG: refuse audits; RAC: no cover traffic).
	ProfileColluder BehaviorProfile = "colluder"
	// ProfileRotationDodger free-rides only in the rounds where the
	// pre-handover accountability was blind (PAG: skip serves exactly on
	// monitor-rotation rounds; AcTinG/RAC have no rotation concept and
	// map it to their plain free-rider knobs).
	ProfileRotationDodger BehaviorProfile = "rotation-dodger"
)

// Event is one scripted occurrence. Unused fields stay zero; Validate
// checks the combination per action.
type Event struct {
	Round  model.Round `json:"round"`
	Action Action      `json:"action"`
	// Node targets join/leave/crash/set_upload_cap/set_behavior; zero
	// means "auto": a fresh id for joins, a seed-picked victim for
	// leaves and crashes.
	Node model.NodeID `json:"node,omitempty"`
	// Rate is the loss probability of set_loss.
	Rate float64 `json:"rate,omitempty"`
	// Groups lists the partition's explicit groups.
	Groups [][]model.NodeID `json:"groups,omitempty"`
	// CapKbps is the upload cap of set_upload_cap / set_queue_cap.
	CapKbps int `json:"cap_kbps,omitempty"`
	// DeadlineRounds retunes the link queue's expiry deadline in a
	// set_queue_cap event: how many rounds a deferred message may wait
	// before it is dropped as expired (the §V-D playout window). 0 keeps
	// the session's current deadline; -1 disables expiry — the unbounded
	// store-and-forward ablation.
	DeadlineRounds int `json:"deadline_rounds,omitempty"`
	// Behavior is the profile of set_behavior.
	Behavior BehaviorProfile `json:"behavior,omitempty"`
	// LingerRounds delays a crash's membership removal (failure
	// detection latency); 0 removes the node the same round.
	LingerRounds int `json:"linger_rounds,omitempty"`
}

// Distribution selects how a churn rate is turned into per-round counts.
type Distribution string

// Supported churn distributions.
const (
	// DistUniform spreads the rate evenly (fractional credit carries
	// over between rounds).
	DistUniform Distribution = "uniform"
	// DistPoisson draws each round's count from a Poisson with the rate
	// as mean — bursty, like real arrival processes.
	DistPoisson Distribution = "poisson"
)

// Churn generates join/leave/crash events from rates instead of listing
// them one by one.
type Churn struct {
	// FromRound / ToRound bound the churn window (inclusive).
	FromRound model.Round `json:"from_round"`
	ToRound   model.Round `json:"to_round"`
	// JoinsPerRound / LeavesPerRound are mean event rates.
	JoinsPerRound  float64 `json:"joins_per_round"`
	LeavesPerRound float64 `json:"leaves_per_round"`
	// CrashFraction is the share of departures that crash (fail-stop
	// with detection latency) instead of leaving gracefully.
	CrashFraction float64 `json:"crash_fraction,omitempty"`
	// CrashLingerRounds is the detection latency of generated crashes.
	CrashLingerRounds int `json:"crash_linger_rounds,omitempty"`
	// Distribution defaults to uniform.
	Distribution Distribution `json:"distribution,omitempty"`
}

// Scenario is a complete declarative script.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed drives churn expansion and auto-victim picks. Zero defaults to
	// 1. The network fault plane is seeded from the session seed instead.
	Seed uint64 `json:"seed,omitempty"`
	// Rounds is the total session length.
	Rounds int `json:"rounds"`
	// WarmupRounds precede the measured window.
	WarmupRounds int `json:"warmup_rounds,omitempty"`
	// Events is the explicit timeline (any order; fired in round order,
	// ties in listed order).
	Events []Event `json:"events,omitempty"`
	// Churn optionally generates additional join/leave/crash events.
	Churn *Churn `json:"churn,omitempty"`
	// Eviction optionally arms the accountability plane's punishment
	// loop for the run: nodes reaching the conviction threshold are
	// evicted from the membership and their ids quarantined. Nil keeps
	// the reporting-only behaviour.
	Eviction *Eviction `json:"eviction,omitempty"`
}

// Eviction scripts the punishment loop: how much deduplicated evidence
// convicts, and how long an evicted id stays barred from re-joining. It is
// part of the scenario (not a session flag) so a script fully determines
// the run, and the same script replays identically over any transport.
type Eviction struct {
	// ConvictionThreshold is the deduplicated verdict count that
	// convicts (>= 1).
	ConvictionThreshold int `json:"conviction_threshold"`
	// QuarantineRounds bars the evicted id from re-joining for this many
	// rounds after the eviction.
	QuarantineRounds int `json:"quarantine_rounds"`
}

// ParseJSON decodes and validates a scenario document.
func ParseJSON(data []byte) (Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return Scenario{}, fmt.Errorf("scenario: parsing: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// JSON encodes the scenario (stable field order — struct order).
func (s Scenario) JSON() []byte {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// Scenario contains only marshallable fields.
		panic(fmt.Sprintf("scenario: marshalling %q: %v", s.Name, err))
	}
	return out
}

// Validate checks the script's internal consistency.
func (s Scenario) Validate() error {
	if s.Rounds <= 0 {
		return fmt.Errorf("scenario %q: rounds must be positive, got %d", s.Name, s.Rounds)
	}
	if s.WarmupRounds < 0 || s.WarmupRounds >= s.Rounds {
		return fmt.Errorf("scenario %q: warmup %d outside [0, %d)", s.Name, s.WarmupRounds, s.Rounds)
	}
	for i, e := range s.Events {
		if err := e.validate(); err != nil {
			return fmt.Errorf("scenario %q: event %d: %w", s.Name, i, err)
		}
		if e.Round < 1 || e.Round > model.Round(s.Rounds) {
			return fmt.Errorf("scenario %q: event %d: round %v outside [1, %d]",
				s.Name, i, e.Round, s.Rounds)
		}
	}
	if ev := s.Eviction; ev != nil {
		if ev.ConvictionThreshold < 1 {
			return fmt.Errorf("scenario %q: eviction threshold %d must be >= 1",
				s.Name, ev.ConvictionThreshold)
		}
		if ev.QuarantineRounds < 0 {
			return fmt.Errorf("scenario %q: negative quarantine", s.Name)
		}
	}
	if c := s.Churn; c != nil {
		if c.FromRound < 1 || c.ToRound < c.FromRound || c.ToRound > model.Round(s.Rounds) {
			return fmt.Errorf("scenario %q: churn window [%v, %v] outside [1, %d]",
				s.Name, c.FromRound, c.ToRound, s.Rounds)
		}
		if c.JoinsPerRound < 0 || c.LeavesPerRound < 0 {
			return fmt.Errorf("scenario %q: negative churn rate", s.Name)
		}
		if c.CrashFraction < 0 || c.CrashFraction > 1 {
			return fmt.Errorf("scenario %q: crash fraction %v outside [0, 1]", s.Name, c.CrashFraction)
		}
		switch c.Distribution {
		case "", DistUniform, DistPoisson:
		default:
			return fmt.Errorf("scenario %q: unknown churn distribution %q", s.Name, c.Distribution)
		}
	}
	return nil
}

func (e Event) validate() error {
	switch e.Action {
	case ActionJoin, ActionLeave, ActionCrash, ActionHeal:
	case ActionSetLoss:
		if e.Rate < 0 || e.Rate >= 1 {
			return fmt.Errorf("loss rate %v outside [0, 1) (a link that never delivers is a partition)", e.Rate)
		}
	case ActionPartition:
		if len(e.Groups) == 0 {
			return fmt.Errorf("partition needs at least one group")
		}
	case ActionSetUploadCap:
		if e.Node == model.NoNode {
			return fmt.Errorf("set_upload_cap needs a node")
		}
		if e.CapKbps < 0 {
			return fmt.Errorf("negative upload cap")
		}
	case ActionSetQueueCap:
		// A zero Node is legal here: it caps every current non-source
		// member (the population-wide capacity sweep).
		if e.CapKbps < 0 {
			return fmt.Errorf("negative upload cap")
		}
		if e.DeadlineRounds < -1 {
			return fmt.Errorf("queue deadline %d (want >= 0, or -1 to disable expiry)", e.DeadlineRounds)
		}
	case ActionSetBehavior:
		if e.Node == model.NoNode {
			return fmt.Errorf("set_behavior needs a node")
		}
		switch e.Behavior {
		case ProfileCorrect, ProfileFreeRider, ProfileColluder, ProfileRotationDodger:
		default:
			return fmt.Errorf("unknown behavior profile %q", e.Behavior)
		}
	default:
		return fmt.Errorf("unknown action %q", e.Action)
	}
	if e.LingerRounds < 0 {
		return fmt.Errorf("negative linger")
	}
	return nil
}

// ---------------------------------------------------------------------------
// Timeline
// ---------------------------------------------------------------------------

// ChurnApplier is the membership half of the scenario surface.
type ChurnApplier interface {
	// Join adds a member; NoNode asks the session for a fresh identity.
	// It returns the id actually admitted (for the journal).
	Join(r model.Round, id model.NodeID) (model.NodeID, error)
	// Leave removes a member gracefully.
	Leave(r model.Round, id model.NodeID) error
	// Crash fail-stops a member; its membership entry lingers for the
	// given number of rounds before removal.
	Crash(r model.Round, id model.NodeID, lingerRounds int) error
	// ChurnTargets returns the members eligible for auto-picked leaves
	// and crashes (ascending; the session excludes sources).
	ChurnTargets() []model.NodeID
}

// FaultApplier is the network half of the scenario surface. A session
// forwards these onto its transport's fault plane — any
// transport.FaultyNetwork, in-memory or real sockets, presents the same
// knobs.
type FaultApplier interface {
	SetLossRate(rate float64)
	Partition(groups [][]model.NodeID)
	Heal()
	SetUploadCap(id model.NodeID, kbps int)
	// SetQueueCap caps one node's upload (the transport's queued link
	// model) and, when deadlineRounds is nonzero, retunes the link
	// queue's expiry deadline (negative disables expiry; 0 keeps the
	// current deadline). Implementations should open a measurement epoch
	// so per-capacity metrics can be sliced.
	SetQueueCap(id model.NodeID, kbps, deadlineRounds int)
}

// BehaviorApplier is the adversary half of the scenario surface.
type BehaviorApplier interface {
	// SetBehavior flips a node's deviation profile.
	SetBehavior(id model.NodeID, profile BehaviorProfile) error
}

// Applier is the full surface a timeline drives. All methods are called
// at the top of a round, before any node acts.
type Applier interface {
	ChurnApplier
	FaultApplier
	BehaviorApplier
}

// Applied is one journal entry: an event that actually fired, with its
// resolved target and outcome.
type Applied struct {
	Round  model.Round  `json:"round"`
	Action Action       `json:"action"`
	Node   model.NodeID `json:"node,omitempty"`
	Detail string       `json:"detail,omitempty"`
	Err    string       `json:"error,omitempty"`
}

// Timeline is a compiled scenario: explicit events bucketed by round plus
// the churn generator state. One Timeline drives one run; compile a fresh
// one per session.
type Timeline struct {
	scenario Scenario
	byRound  map[model.Round][]Event
	churnGen *churnGen
	rng      model.SplitMix64
	journal  []Applied
	trace    *obs.Tracer
}

// Compile validates the scenario and prepares a timeline for one run.
func Compile(s Scenario) (*Timeline, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	t := &Timeline{
		scenario: s,
		byRound:  make(map[model.Round][]Event),
		rng:      model.SplitMix64{State: seed ^ 0xD1B54A32D192ED03},
	}
	for _, e := range s.Events {
		t.byRound[e.Round] = append(t.byRound[e.Round], e)
	}
	if s.Churn != nil {
		t.churnGen = newChurnGen(*s.Churn, seed)
	}
	return t, nil
}

// Scenario returns the compiled script.
func (t *Timeline) Scenario() Scenario { return t.scenario }

// Instrument attaches the round-event tracer (nil is a no-op): every
// fired event — scripted, churn-generated or auto-resolved — emits one
// scenario_event record carrying the *resolved* event (auto joins pinned
// to the admitted id, auto victims to the picked node), which is exactly
// what trace→scenario replay needs to reproduce the run without the
// generator state.
func (t *Timeline) Instrument(tr *obs.Tracer) { t.trace = tr }

// Journal returns the applied-event log (what actually happened, in firing
// order, including events that failed to apply).
func (t *Timeline) Journal() []Applied { return t.journal }

// Apply fires every event due at round r into a. Individual event failures
// (e.g. a leave that would shrink the membership below the fanout) are
// recorded in the journal and do not stop the run.
func (t *Timeline) Apply(r model.Round, a Applier) {
	for _, e := range t.byRound[r] {
		t.fire(r, e, a)
	}
	delete(t.byRound, r)
	if g := t.churnGen; g != nil && r >= g.spec.FromRound && r <= g.spec.ToRound {
		joins, leaves := g.countsFor()
		for i := 0; i < joins; i++ {
			t.fire(r, Event{Round: r, Action: ActionJoin}, a)
		}
		for i := 0; i < leaves; i++ {
			act := ActionLeave
			linger := 0
			if g.spec.CrashFraction > 0 && g.rng.Float() < g.spec.CrashFraction {
				act = ActionCrash
				linger = g.spec.CrashLingerRounds
			}
			t.fire(r, Event{Round: r, Action: act, LingerRounds: linger}, a)
		}
	}
}

func (t *Timeline) fire(r model.Round, e Event, a Applier) {
	entry := Applied{Round: r, Action: e.Action, Node: e.Node}
	var err error
	switch e.Action {
	case ActionJoin:
		var id model.NodeID
		id, err = a.Join(r, e.Node)
		if err == nil {
			entry.Node = id
		}
	case ActionLeave, ActionCrash:
		id := e.Node
		if id == model.NoNode {
			id = t.pickVictim(a)
			entry.Node = id
		}
		if id == model.NoNode {
			err = fmt.Errorf("no eligible churn target")
		} else if e.Action == ActionLeave {
			err = a.Leave(r, id)
		} else {
			err = a.Crash(r, id, e.LingerRounds)
		}
	case ActionSetLoss:
		a.SetLossRate(e.Rate)
		entry.Detail = fmt.Sprintf("rate=%g", e.Rate)
	case ActionPartition:
		a.Partition(e.Groups)
		entry.Detail = fmt.Sprintf("groups=%d", len(e.Groups))
	case ActionHeal:
		a.Heal()
	case ActionSetUploadCap:
		a.SetUploadCap(e.Node, e.CapKbps)
		entry.Detail = fmt.Sprintf("cap=%dkbps", e.CapKbps)
	case ActionSetQueueCap:
		if e.Node == model.NoNode {
			// Population-wide sweep: every current non-source member, in
			// ascending id order (ChurnTargets excludes the source and
			// the already-departed).
			targets := a.ChurnTargets()
			sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
			for _, id := range targets {
				a.SetQueueCap(id, e.CapKbps, e.DeadlineRounds)
			}
			entry.Detail = fmt.Sprintf("cap=%dkbps deadline=%dr nodes=%d",
				e.CapKbps, e.DeadlineRounds, len(targets))
		} else {
			a.SetQueueCap(e.Node, e.CapKbps, e.DeadlineRounds)
			entry.Detail = fmt.Sprintf("cap=%dkbps deadline=%dr", e.CapKbps, e.DeadlineRounds)
		}
	case ActionSetBehavior:
		err = a.SetBehavior(e.Node, e.Behavior)
		entry.Detail = string(e.Behavior)
	}
	if err != nil {
		entry.Err = err.Error()
	}
	t.journal = append(t.journal, entry)
	if t.trace != nil {
		resolved := e
		resolved.Round = r
		resolved.Node = entry.Node
		t.trace.Emit("scenario_event", obs.F("ev", resolved), obs.F("err", entry.Err))
	}
}

// pickVictim selects a deterministic random churn target.
func (t *Timeline) pickVictim(a Applier) model.NodeID {
	targets := a.ChurnTargets()
	if len(targets) == 0 {
		return model.NoNode
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	return targets[t.rng.Next()%uint64(len(targets))]
}

// ---------------------------------------------------------------------------
// Churn generation
// ---------------------------------------------------------------------------

type churnGen struct {
	spec Churn
	rng  model.SplitMix64
	// joinAcc / leaveAcc carry fractional uniform-rate credit.
	joinAcc  float64
	leaveAcc float64
}

func newChurnGen(spec Churn, seed uint64) *churnGen {
	if spec.Distribution == "" {
		spec.Distribution = DistUniform
	}
	return &churnGen{spec: spec, rng: model.SplitMix64{State: seed ^ 0xA0761D6478BD642F}}
}

// countsFor returns this round's (joins, leaves); called exactly once per
// in-window round, in round order, so the stream stays deterministic.
func (g *churnGen) countsFor() (joins, leaves int) {
	switch g.spec.Distribution {
	case DistPoisson:
		return g.poisson(g.spec.JoinsPerRound), g.poisson(g.spec.LeavesPerRound)
	default:
		joins, g.joinAcc = drain(g.joinAcc + g.spec.JoinsPerRound)
		leaves, g.leaveAcc = drain(g.leaveAcc + g.spec.LeavesPerRound)
		return joins, leaves
	}
}

func drain(acc float64) (int, float64) {
	n := int(acc)
	return n, acc - float64(n)
}

// poisson draws via Knuth's product method — fine for the small per-round
// rates churn schedules use.
func (g *churnGen) poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	limit := math.Exp(-mean)
	k, p := 0, 1.0
	for p > limit {
		k++
		p *= g.rng.Float()
	}
	return k - 1
}
