package pag

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/acting"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/scenario"
)

// scenarioConfig is testConfig plus a scenario script.
func scenarioConfig(p Protocol, nodes int, sc *scenario.Scenario) SessionConfig {
	cfg := testConfig(p, nodes, 2)
	cfg.Scenario = sc
	return cfg
}

// TestFlashCrowdJoinsOpenEpochs: a burst of joins re-draws membership into
// a new epoch, the newcomers catch up to full continuity, and the honest
// run stays conviction-free across the boundary.
func TestFlashCrowdJoinsOpenEpochs(t *testing.T) {
	sc := scenario.FlashCrowd(4, 6, 16)
	s, err := NewSession(scenarioConfig(ProtocolPAG, 16, &sc))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(16)

	if got := len(s.Members()); got != 20 {
		t.Fatalf("%d members after the flash crowd, want 20", got)
	}
	epochs := s.EpochStats()
	if len(epochs) != 2 {
		t.Fatalf("%d epochs, want 2 (pre/post join burst)", len(epochs))
	}
	if epochs[0].Members != 16 || epochs[1].Members != 20 {
		t.Fatalf("epoch members = %d, %d; want 16, 20", epochs[0].Members, epochs[1].Members)
	}
	if epochs[1].StartRound != 6 || epochs[0].EndRound != 5 {
		t.Fatalf("epoch bounds wrong: %+v", epochs)
	}
	// The four joiners took fresh ids 17..20 and reached the stream.
	for id := model.NodeID(17); id <= 20; id++ {
		if c := windowContinuity(s, id, 12, 16); c < 0.9 {
			t.Errorf("joiner %v continuity %v in the settled window, want ≈ 1", id, c)
		}
	}
	// Accountability must not misfire on churn: everyone is honest.
	if len(s.Verdicts()) != 0 {
		t.Fatalf("honest flash-crowd run raised verdicts: %v", s.Verdicts())
	}
	if c := s.MeanContinuity(); c < 0.9 {
		t.Fatalf("mean continuity %v after the flash crowd", c)
	}
}

// TestLeaveRedrawsMembership: a graceful leave opens an epoch, the
// departed node stops being anyone's successor or monitor, and nobody gets
// convicted over the transition.
func TestLeaveRedrawsMembership(t *testing.T) {
	sc := scenario.Scenario{
		Name: "one-leave", Rounds: 14,
		Events: []scenario.Event{{Round: 7, Action: scenario.ActionLeave, Node: 9}},
	}
	s, err := NewSession(scenarioConfig(ProtocolPAG, 16, &sc))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(14)
	if got := len(s.Members()); got != 15 {
		t.Fatalf("%d members after the leave, want 15", got)
	}
	for _, id := range s.Members() {
		if id == 9 {
			t.Fatal("departed node still a member")
		}
	}
	epochs := s.EpochStats()
	if len(epochs) != 2 || epochs[1].StartRound != 7 {
		t.Fatalf("epochs = %+v", epochs)
	}
	if len(s.Verdicts()) != 0 {
		t.Fatalf("graceful leave raised verdicts: %v", s.Verdicts())
	}
	if c := s.MeanContinuity(); c < 0.9 {
		t.Fatalf("mean continuity %v after the leave", c)
	}
	// The departed node let go of its state and kept its counters.
	if got := s.members[9].(*core.Node).Store().Len(); got != 0 {
		t.Fatalf("departed node still stores %d updates", got)
	}
	if got := s.PAGNodeStats()[9]; got.UpdatesReceived == 0 || got.RoundsRun != 6 {
		t.Fatalf("departed node's counters: %+v", got)
	}
	if s.members[3].(*core.Node).Store().Len() == 0 {
		t.Fatal("a member's store is empty")
	}
}

// windowContinuity is a node's continuity over the chunks whose playout
// deadline fell within rounds [from, to]: how the stream looked to that
// viewer during that window.
func windowContinuity(s *Session, id model.NodeID, from, to model.Round) float64 {
	c, _ := s.continuity(id, s.dueThrough(from-1), s.dueThrough(to))
	return c
}

// TestEpochContinuityIsMeanContinuity: continuity has one definition. A
// static session is one epoch covering every due chunk of every member,
// so the epoch's continuity is MeanContinuity to the bit, at any worker
// count. A PAG node that refuses to receive keeps the mean below 1.
func TestEpochContinuityIsMeanContinuity(t *testing.T) {
	for _, proto := range []Protocol{ProtocolPAG, ProtocolAcTinG} {
		for _, workers := range []int{0, 4} {
			cfg := testConfig(proto, 12, 4)
			cfg.Workers = workers
			if proto == ProtocolPAG {
				cfg.PAGBehaviors = map[model.NodeID]core.Behavior{5: {RefuseReceive: true}}
			}
			s, err := NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Run(12)
			epochs := s.EpochStats()
			if len(epochs) != 1 {
				t.Fatalf("%v workers=%d: %d epochs in a static run, want 1", proto, workers, len(epochs))
			}
			got, want := epochs[0].MeanContinuity, s.MeanContinuity()
			if math.Float64bits(got) != math.Float64bits(want) || want == 0 || want == 1 {
				t.Errorf("%v workers=%d: epoch continuity %v, MeanContinuity %v; want equal bits strictly inside (0, 1)",
					proto, workers, got, want)
			}
		}
	}
}

// TestPartitionContinuityDropsAndRecovers: a node cut off from the rest of
// the network misses the chunks that expired during the cut, and returns
// to full continuity once healed — while unpartitioned nodes never notice.
func TestPartitionContinuityDropsAndRecovers(t *testing.T) {
	const victim = model.NodeID(16)
	sc := scenario.TransientPartition([]model.NodeID{victim}, 8, 14, 26)
	s, err := NewSession(scenarioConfig(ProtocolPAG, 16, &sc))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(26)

	// Chunks emitted early in the cut (rounds 8-9) expired strictly
	// before the heal: their deadlines (TTL = 4 rounds later) fall in
	// rounds 12-13, so the victim can never play them.
	dip := windowContinuity(s, victim, 12, 13)
	if dip > 0.1 {
		t.Fatalf("victim continuity %v during the partition, want ≈ 0", dip)
	}
	// Well after the heal the victim is back to full quality.
	recovered := windowContinuity(s, victim, 20, 26)
	if recovered < 0.95 {
		t.Fatalf("victim continuity %v after the heal, want ≈ 1", recovered)
	}
	// A node on the majority side streams through unaffected.
	if c := windowContinuity(s, 2, 12, 14); c < 0.95 {
		t.Fatalf("majority-side continuity %v during the partition", c)
	}
}

// TestLossConvictsNoCorrectNode: §III's channels are reliable, so scripted
// loss costs retransmissions, never messages, and the accountability plane
// must not convict a correct node for it — on mem at any worker count
// (with byte-identical reports) and over TCP.
func TestLossConvictsNoCorrectNode(t *testing.T) {
	sc := scenario.Scenario{
		Name: "loss", Rounds: 24, WarmupRounds: 6,
		Events: []scenario.Event{{Round: 8, Action: scenario.ActionSetLoss, Rate: 0.02}},
	}
	check := func(t *testing.T, cfg SessionConfig) ScenarioReport {
		t.Helper()
		report, err := RunScenarioReport(cfg, sc, []Protocol{ProtocolPAG}, 1)
		if err != nil {
			t.Fatal(err)
		}
		run := report.Protocols[0]
		verdicts := 0
		for _, e := range run.Epochs {
			verdicts += e.Verdicts
		}
		if verdicts != 0 || len(run.Convictions) != 0 {
			t.Errorf("%d verdicts, convictions %v under 2%% loss; want none", verdicts, run.Convictions)
		}
		if run.MessagesDropped != 0 {
			t.Errorf("%d messages dropped under loss alone; want all retransmitted", run.MessagesDropped)
		}
		return report
	}
	mem := tcpSessionConfig(32)
	mem.NewNetwork = nil
	inline := check(t, mem)
	mem.Workers = 4
	if sharded := check(t, mem); sharded.Digest() != inline.Digest() {
		t.Error("workers=4 report digest differs from the inline run's")
	}
	t.Run("tcp", func(t *testing.T) {
		if d := check(t, tcpSessionConfig(32)).Digest(); d != inline.Digest() {
			t.Errorf("tcp report digest %s differs from the inline MemNet run's %s", d, inline.Digest())
		}
	})
}

// TestDelayedFreeRiderConvicted: an adversary that plays honestly through
// the warm-up and flips to free-riding at round 9 is convicted from its
// post-activation deviations — and the verdicts land in the epoch the
// activation round belongs to.
func TestDelayedFreeRiderConvicted(t *testing.T) {
	const adversary = model.NodeID(16)
	sc := scenario.Scenario{
		Name: "delayed-free-rider", Rounds: 20, WarmupRounds: 8,
		Events: []scenario.Event{
			// A join at the same round opens a fresh epoch, proving
			// conviction works across the boundary it creates.
			{Round: 9, Action: scenario.ActionJoin},
			{Round: 9, Action: scenario.ActionSetBehavior, Node: adversary,
				Behavior: scenario.ProfileFreeRider},
		},
	}
	s, err := NewSession(scenarioConfig(ProtocolPAG, 16, &sc))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(20)

	if pre := s.Judicial().CountsInWindow(1, 8)[adversary]; pre != 0 {
		t.Fatalf("%d verdicts against the adversary before activation", pre)
	}
	post := s.Judicial().CountsInWindow(9, 20)[adversary]
	if post == 0 {
		t.Fatal("free-rider never convicted after activation")
	}
	if _, ok := s.ConvictedNodes(1)[adversary]; !ok {
		t.Fatal("adversary missing from ConvictedNodes")
	}
	// Epoch attribution: all verdicts belong to the post-join epoch.
	epochs := s.EpochStats()
	if len(epochs) != 2 {
		t.Fatalf("%d epochs, want 2", len(epochs))
	}
	if epochs[0].Verdicts != 0 {
		t.Fatalf("%d verdicts attributed to the honest epoch", epochs[0].Verdicts)
	}
	if epochs[1].Verdicts == 0 {
		t.Fatal("no verdicts attributed to the activation epoch")
	}
	// Only the adversary accumulates convictions — no collateral damage.
	for id := range s.ConvictedNodes(1) {
		if id != adversary {
			t.Errorf("honest node %v convicted under churn", id)
		}
	}
}

// TestDelayedFreeRiderConvictedActing: the same delayed activation under
// the AcTinG baseline (audits catch the missing proposals).
func TestDelayedFreeRiderConvictedActing(t *testing.T) {
	const adversary = model.NodeID(12)
	sc := scenario.DelayedCoalition([]model.NodeID{adversary}, 6, 16)
	s, err := NewSession(scenarioConfig(ProtocolAcTinG, 12, &sc))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(16)
	if pre := s.Judicial().CountsInWindow(1, 5)[adversary]; pre != 0 {
		t.Fatalf("%d verdicts before activation", pre)
	}
	if post := s.Judicial().CountsInWindow(6, 16)[adversary]; post == 0 {
		t.Fatal("AcTinG never convicted the delayed free-rider")
	}
}

// TestCrashLingerConvictsThenRemoves: a crashed node is indistinguishable
// from a refusal to participate while the failure lingers undetected; the
// membership then drops it in a new epoch.
func TestCrashLingerConvictsThenRemoves(t *testing.T) {
	const victim = model.NodeID(15)
	sc := scenario.Scenario{
		Name: "crash-linger", Rounds: 16,
		Events: []scenario.Event{
			{Round: 8, Action: scenario.ActionCrash, Node: victim, LingerRounds: 3},
		},
	}
	s, err := NewSession(scenarioConfig(ProtocolPAG, 16, &sc))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(16)
	if got := len(s.Members()); got != 15 {
		t.Fatalf("%d members after detection, want 15", got)
	}
	epochs := s.EpochStats()
	if len(epochs) != 2 || epochs[1].StartRound != 11 {
		t.Fatalf("detection epoch wrong: %+v", epochs)
	}
	if s.Judicial().CountsInWindow(8, 11)[victim] == 0 {
		t.Fatal("lingering crashed node never accused")
	}
	// Post-detection, the accusations stop: nobody expects the node.
	if late := s.Judicial().CountsInWindow(13, 16)[victim]; late != 0 {
		t.Fatalf("%d verdicts against the node after the membership dropped it", late)
	}
	// The dead node's monitoring duties break the report chain for the
	// exchanges it was designated monitor of, so honest live nodes
	// collect transient noise during the linger — after registry dedupe,
	// at most a few facts per (accuser, round, kind) — but never
	// WrongForward (the suspect-baseline guard), and never enough to
	// cross a linger-scaled punishment threshold, which the crashed node
	// (every monitor × every violated obligation kind × every linger
	// round) sails past.
	for _, v := range s.Verdicts() {
		if v.Accused != victim && v.Kind == core.VerdictWrongForward {
			t.Errorf("honest live node framed for wrong forwarding: %v", v)
		}
	}
	const linger = 3
	threshold := 2 * s.Config().Fanout * linger
	for id, n := range s.Judicial().CountsInWindow(1, 16) {
		if id != victim && n >= threshold {
			t.Errorf("honest live node %v crossed the conviction threshold with %d verdicts", id, n)
		}
	}
	if s.Judicial().CountsInWindow(1, 16)[victim] < threshold {
		t.Error("crashed node stayed below the conviction threshold")
	}
}

// TestScenarioReportDeterministic: the acceptance gate — the same scenario
// and seed produce byte-identical reports across both protocols, churn
// and crashes included.
func TestScenarioReportDeterministic(t *testing.T) {
	sc := scenario.SteadyChurn(0.3, 0.4, 4, 12)
	base := SessionConfig{
		Nodes: 10, StreamKbps: 2, UpdateBytes: 64, ModulusBits: 128, Seed: 7,
	}
	r1, err := RunScenarioReport(base, sc, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunScenarioReport(base, sc, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1.JSON(), r2.JSON()) {
		t.Fatal("same seed produced different reports")
	}
	if len(r1.Protocols) != 2 {
		t.Fatalf("%d protocol runs, want 2", len(r1.Protocols))
	}
	for _, p := range r1.Protocols {
		if len(p.Journal) == 0 {
			t.Fatalf("%s run has an empty scenario journal", p.Protocol)
		}
		if len(p.Epochs) < 2 {
			t.Fatalf("%s run saw %d epochs under churn", p.Protocol, len(p.Epochs))
		}
	}
}

// TestScenarioRejectedAtSessionBuild: an invalid script fails fast.
func TestScenarioRejectedAtSessionBuild(t *testing.T) {
	sc := scenario.Scenario{Name: "bad"} // zero rounds
	if _, err := NewSession(scenarioConfig(ProtocolPAG, 8, &sc)); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

// TestSetBehaviorEveryProtocol: every profile scenario validation accepts
// reaches a node of each protocol through Session.SetBehavior as that
// protocol's documented deviation — a rotation-dodger is AcTinG's plain
// free-rider — while an unknown profile,
// the source and a non-member are refused and change nothing.
func TestSetBehaviorEveryProtocol(t *testing.T) {
	const target = NodeID(4)
	for _, tc := range []struct {
		protocol Protocol
		behavior func(member) any
		want     map[scenario.BehaviorProfile]any
	}{
		{ProtocolPAG, func(m member) any { return m.(*core.Node).Behavior() }, map[scenario.BehaviorProfile]any{
			scenario.ProfileFreeRider:      core.Behavior{SkipServeEvery: 1},
			scenario.ProfileColluder:       core.Behavior{SilentMonitor: true, SkipMonitorReport: true},
			scenario.ProfileRotationDodger: core.Behavior{SkipServeOnRotation: true},
			scenario.ProfileCorrect:        core.Behavior{},
		}},
		{ProtocolAcTinG, func(m member) any { return m.(*acting.Node).Behavior() }, map[scenario.BehaviorProfile]any{
			scenario.ProfileFreeRider:      acting.Behavior{SkipPropose: true},
			scenario.ProfileColluder:       acting.Behavior{RefuseAudit: true},
			scenario.ProfileRotationDodger: acting.Behavior{SkipPropose: true},
			scenario.ProfileCorrect:        acting.Behavior{},
		}},
	} {
		t.Run(tc.protocol.String(), func(t *testing.T) {
			s, err := NewSession(testConfig(tc.protocol, 8, 2))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// Correct last, so it is seen to undo a deviation.
			profiles := []scenario.BehaviorProfile{scenario.ProfileFreeRider, scenario.ProfileColluder,
				scenario.ProfileRotationDodger, scenario.ProfileCorrect}
			if len(tc.want) != len(profiles) {
				t.Fatalf("%d profiles in the table, %d exercised", len(tc.want), len(profiles))
			}
			for _, p := range profiles {
				if err := setBehaviorScript(p).Validate(); err != nil {
					t.Fatalf("profile %q rejected by scenario validation: %v", p, err)
				}
				if err := s.SetBehavior(target, p); err != nil {
					t.Fatalf("SetBehavior(%v, %q): %v", target, p, err)
				}
				if got := tc.behavior(s.members[target]); got != tc.want[p] {
					t.Errorf("profile %q: behaviour %+v, want %+v", p, got, tc.want[p])
				}
			}

			const unknown = scenario.BehaviorProfile("saboteur")
			if setBehaviorScript(unknown).Validate() == nil {
				t.Fatalf("scenario validation accepts %q", unknown)
			}
			if err := s.SetBehavior(target, scenario.ProfileFreeRider); err != nil {
				t.Fatal(err)
			}
			for _, bad := range []struct {
				id      NodeID
				profile scenario.BehaviorProfile
			}{{target, unknown}, {SourceID, scenario.ProfileFreeRider}, {99, scenario.ProfileFreeRider}} {
				if err := s.SetBehavior(bad.id, bad.profile); err == nil {
					t.Errorf("SetBehavior(%v, %q) accepted", bad.id, bad.profile)
				}
			}
			want := tc.want[scenario.ProfileFreeRider]
			if got := tc.behavior(s.members[target]); got != want {
				t.Errorf("a refused SetBehavior changed node %v to %+v, want %+v", target, got, want)
			}
			if got := tc.behavior(s.members[SourceID]); got != tc.want[scenario.ProfileCorrect] {
				t.Errorf("the source's behaviour became %+v", got)
			}
		})
	}
}

// setBehaviorScript is a one-event scenario flipping node 2 to profile.
func setBehaviorScript(profile scenario.BehaviorProfile) scenario.Scenario {
	return scenario.Scenario{Name: "set-behavior", Rounds: 1, Events: []scenario.Event{
		{Round: 1, Action: scenario.ActionSetBehavior, Node: 2, Behavior: profile},
	}}
}
