package pag

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// Tests for the accountability plane: the rotation-gap regression, the
// punishment loop (eviction, quarantine, re-join) and the registry's
// dedupe surfacing.

// rotationConfig runs PAG with monitor rotation enabled and one
// rotation-dodger: a node that skips serves exactly on rotation-boundary
// rounds.
func rotationConfig(cheat NodeID) SessionConfig {
	cfg := testConfig(ProtocolPAG, 12, 2)
	cfg.MonitorRotationRounds = 4
	cfg.PAGBehaviors = map[model.NodeID]core.Behavior{
		cheat: {SkipServeOnRotation: true},
	}
	return cfg
}

// incomingConvictions counts the verdicts against cheat whose reporting
// monitor did not monitor it in the previous round: one that took over at
// a rotation.
func incomingConvictions(s *Session, cheat NodeID) int {
	incoming := 0
	for _, v := range s.Verdicts() {
		if v.Accused == cheat && v.Round > 0 && !s.dir.IsMonitorOf(v.Reporter, cheat, v.Round-1) {
			incoming++
		}
	}
	return incoming
}

// TestRotationGapClosedByHandover: incoming monitors convict a
// rotation-round free-rider too — the outgoing monitors handed over the
// obligations the forwarding check verifies against — so conviction
// coverage does not depend on rendezvous overlap luck.
func TestRotationGapClosedByHandover(t *testing.T) {
	const cheat = NodeID(9)
	s, err := NewSession(rotationConfig(cheat))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(16)
	if incomingConvictions(s, cheat) == 0 {
		t.Fatal("no incoming-monitor conviction despite obligation handover")
	}
	// The handover must not create false convictions: every verdict in
	// the run names the dodger.
	for id, n := range s.Judicial().CountsInWindow(1, 16) {
		if id != cheat {
			t.Errorf("honest node %v accused %d times under rotation+handover", id, n)
		}
	}
}

// TestRotationHonestRunCleanWithHandover: an all-honest run under monitor
// rotation raises no verdicts at all — the handover baseline agrees with
// what the successors acknowledge.
func TestRotationHonestRunCleanWithHandover(t *testing.T) {
	cfg := testConfig(ProtocolPAG, 12, 2)
	cfg.MonitorRotationRounds = 4
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(16)
	if got := s.Judicial().Len(); got != 0 {
		t.Fatalf("honest rotation run raised %d verdicts: %v", got, s.Verdicts())
	}
}

// TestEvictionQuarantineRejoin drives the full punishment loop in one
// scripted session: free-ride → convict → evict → rejected re-join
// mid-quarantine → admitted re-join after expiry.
func TestEvictionQuarantineRejoin(t *testing.T) {
	const attacker = NodeID(12)
	sc := scenario.Scenario{
		Name: "evict-rejoin", Rounds: 24,
		Eviction: &scenario.Eviction{ConvictionThreshold: 3, QuarantineRounds: 8},
		Events: []scenario.Event{
			{Round: 3, Action: scenario.ActionSetBehavior, Node: attacker,
				Behavior: scenario.ProfileFreeRider},
			{Round: 8, Action: scenario.ActionJoin, Node: attacker},
			{Round: 20, Action: scenario.ActionJoin, Node: attacker},
		},
	}
	s, err := NewSession(scenarioConfig(ProtocolPAG, 12, &sc))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(24)

	evs := s.Evictions()
	if len(evs) == 0 {
		t.Fatal("free-rider never evicted")
	}
	if evs[0].Node != attacker || evs[0].Err != "" {
		t.Fatalf("first eviction %+v, want clean eviction of %v", evs[0], attacker)
	}
	until := evs[0].QuarantineUntil
	if until != evs[0].Round+8 {
		t.Fatalf("quarantine until %v, want eviction round %v + 8", until, evs[0].Round)
	}

	// The mid-quarantine re-join (round 8) bounced; the round-20 one (a
	// round past every plausible expiry) was admitted.
	rejected := s.RejoinRejections()
	if len(rejected) != 1 || rejected[0].Round != 8 || rejected[0].Node != attacker {
		t.Fatalf("rejoin rejections %v, want exactly the round-8 attempt", rejected)
	}
	member := false
	for _, id := range s.Members() {
		if id == attacker {
			member = true
		}
	}
	if !member {
		t.Fatal("post-quarantine re-join not admitted")
	}
	// The journal tells the same story.
	var sawReject, sawAdmit bool
	for _, e := range s.ScenarioJournal() {
		if e.Action != scenario.ActionJoin || e.Node != attacker {
			continue
		}
		if e.Round == 8 && strings.Contains(e.Err, "quarantined") {
			sawReject = true
		}
		if e.Round == 20 && e.Err == "" {
			sawAdmit = true
		}
	}
	if !sawReject || !sawAdmit {
		t.Fatalf("journal missing the rejection/admission pair: %v", s.ScenarioJournal())
	}

	// Per-epoch surfacing: the loop's events land in the epoch slices.
	var convictions, evictions, rejections int
	for _, ep := range s.EpochStats() {
		convictions += ep.Convictions
		evictions += ep.Evictions
		rejections += ep.RejoinRejections
	}
	if convictions == 0 || evictions == 0 || rejections != 1 {
		t.Fatalf("epoch tallies convictions=%d evictions=%d rejections=%d",
			convictions, evictions, rejections)
	}
}

// TestEvictedExcludedFromSessionAssignments: after the eviction epoch
// opens, no later round assigns the evicted node as anyone's successor or
// monitor.
func TestEvictedExcludedFromSessionAssignments(t *testing.T) {
	const attacker = NodeID(12)
	sc := scenario.Scenario{
		Name: "evict-exclude", Rounds: 16,
		Eviction: &scenario.Eviction{ConvictionThreshold: 3, QuarantineRounds: 20},
		Events: []scenario.Event{
			{Round: 3, Action: scenario.ActionSetBehavior, Node: attacker,
				Behavior: scenario.ProfileFreeRider},
		},
	}
	s, err := NewSession(scenarioConfig(ProtocolPAG, 12, &sc))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(16)
	evs := s.Evictions()
	if len(evs) != 1 || evs[0].Err != "" {
		t.Fatalf("evictions %v, want exactly one clean eviction", evs)
	}
	from := evs[0].Round
	for r := from; r <= 16; r++ {
		for _, x := range s.dir.MembersAt(r) {
			for _, succ := range s.dir.Successors(x, r) {
				if succ == attacker {
					t.Fatalf("round %v: evicted node assigned as successor of %v", r, x)
				}
			}
			for _, m := range s.dir.Monitors(x, r) {
				if m == attacker {
					t.Fatalf("round %v: evicted node assigned as monitor of %v", r, x)
				}
			}
		}
	}
	if _, ok := s.dir.QuarantinedUntil(attacker); !ok {
		t.Fatal("no quarantine recorded for the evicted id")
	}
}

// TestConvictedNodesDedupesRetriedVerdicts is the explicit regression for
// the pre-registry double-counting: identical verdicts reported via
// retries must count as one piece of evidence.
func TestConvictedNodesDedupesRetriedVerdicts(t *testing.T) {
	cfg := testConfig(ProtocolPAG, 12, 2)
	cfg.Obs = obs.NewRegistry()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := Verdict{Round: 4, Kind: core.VerdictNoForward, Accused: 7, Reporter: 3,
		Detail: "no answer to AckRequest for successor n5"}
	s.Judicial().Submit(v)
	s.Judicial().Submit(v) // a monitor retry
	// Same fact re-raised with different prose (e.g. on the judge pass).
	v.Detail = "cannot exhibit ack of n5 and did not accuse"
	s.Judicial().Submit(v)
	if got := s.ConvictedNodes(1)[7]; got != 1 {
		t.Fatalf("retried verdict counted %d times, want 1", got)
	}
	if got := len(s.ConvictedNodes(2)); got != 0 {
		t.Fatalf("retries inflated the conviction tally: %v", s.ConvictedNodes(2))
	}
	if got := cfg.Obs.Counter("pag_judicial_duplicates_total").Value(); got != 2 {
		t.Fatalf("duplicate count %d, want 2", got)
	}
	// Distinct accusers remain independent evidence.
	s.Judicial().Submit(Verdict{Round: 4, Kind: core.VerdictNoForward,
		Accused: 7, Reporter: 5})
	if got := s.ConvictedNodes(2)[7]; got != 2 {
		t.Fatalf("independent accuser lost: %v", s.ConvictedNodes(1))
	}
}

// TestJudicialPolicyFromSessionConfig: a scenario carrying nothing but an
// Eviction block — no events, no churn — drives evictions.
func TestJudicialPolicyFromSessionConfig(t *testing.T) {
	const cheat = NodeID(9)
	cfg := testConfig(ProtocolPAG, 12, 2)
	cfg.Scenario = &scenario.Scenario{Name: "eviction-only", Rounds: 10,
		Eviction: &scenario.Eviction{ConvictionThreshold: 3, QuarantineRounds: 6}}
	cfg.PAGBehaviors = map[model.NodeID]core.Behavior{cheat: {SkipServeEvery: 1}}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(10)
	evs := s.Evictions()
	if len(evs) != 1 || evs[0].Node != cheat || evs[0].Err != "" {
		t.Fatalf("evictions %v, want the free-rider evicted once", evs)
	}
	for _, id := range s.Members() {
		if id == cheat {
			t.Fatal("evicted free-rider still a member")
		}
	}
}
