package pag

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// Tests for the accountability plane: the churn-boundary dodger, the
// punishment loop (eviction, quarantine, re-join) and the registry's
// dedupe surfacing.

// churnDodgerScenario opens a membership epoch at the top of rounds 5, 9,
// 13 and 17: three joins of fresh ids, then node 12 leaves.
func churnDodgerScenario() *scenario.Scenario {
	return &scenario.Scenario{Name: "churn-dodger", Rounds: 20, Events: []scenario.Event{
		{Round: 5, Action: scenario.ActionJoin},
		{Round: 9, Action: scenario.ActionJoin},
		{Round: 13, Action: scenario.ActionJoin},
		{Round: 17, Action: scenario.ActionLeave, Node: 12},
	}}
}

// runChurnDodger runs churnDodgerScenario on 12 PAG nodes for 20 rounds
// with the given behaviours.
func runChurnDodger(t *testing.T, seed uint64, workers int, b map[model.NodeID]core.Behavior) *Session {
	t.Helper()
	cfg := scenarioConfig(ProtocolPAG, 12, churnDodgerScenario())
	cfg.Seed, cfg.Workers, cfg.PAGBehaviors = seed, workers, b
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.Run(20)
	return s
}

// TestChurnDodgerConvictedByStayingMonitors: a node that skips every serve
// in exactly the rounds a membership epoch opens is convicted by the
// monitors that watched it across the boundary — one newly seated there
// has no round-(r−1) baseline and skips that check, the staying ones do
// not — and nobody else is accused. Seeds 1–5, serially and on four
// workers; in most of them a boundary re-seats one of the dodger's
// monitors.
func TestChurnDodgerConvictedByStayingMonitors(t *testing.T) {
	const cheat = NodeID(9)
	reseated := 0
	for seed := uint64(1); seed <= 5; seed++ {
		for _, workers := range []int{0, 4} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				s := runChurnDodger(t, seed, workers, map[model.NodeID]core.Behavior{cheat: {SkipServeOnRotation: true}})
				if len(s.EpochStats()) != 5 {
					t.Fatalf("%d membership epochs, want 5", len(s.EpochStats()))
				}
				for _, r := range []model.Round{5, 9, 13, 17} {
					if !slices.Equal(s.dir.Monitors(cheat, r-1), s.dir.Monitors(cheat, r)) {
						reseated++
					}
				}
				if len(s.Verdicts()) == 0 {
					t.Fatal("the dodger was never convicted")
				}
				for _, v := range s.Verdicts() {
					if v.Accused != cheat {
						t.Errorf("correct node accused: %v", v)
					} else if !s.dir.IsMonitorOf(v.Reporter, cheat, v.Round-1) {
						t.Errorf("convicted by a monitor seated at round %v: %v", v.Round, v)
					}
				}
			})
		}
	}
	if reseated == 0 {
		t.Fatal("no boundary re-seated a monitor of the dodger: no check was ever skipped")
	}
}

// TestChurnDodgerHonestTwinClean: the dodger's scenario with every node
// honest raises no verdict at all, so a monitor newly seated at a
// membership epoch never mistakes a missing baseline for a missing serve.
func TestChurnDodgerHonestTwinClean(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for _, workers := range []int{0, 4} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				s := runChurnDodger(t, seed, workers, nil)
				if len(s.EpochStats()) != 5 {
					t.Fatalf("%d membership epochs, want 5", len(s.EpochStats()))
				}
				if s.Judicial().Len() != 0 {
					t.Fatalf("the honest twin raised %d verdicts: %v", s.Judicial().Len(), s.Verdicts())
				}
			})
		}
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
