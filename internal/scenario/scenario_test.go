package scenario

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/model"
)

// fakeApplier journals calls as strings and tracks a member set.
type fakeApplier struct {
	calls   []string
	members []model.NodeID
	nextID  model.NodeID
	failAll bool
}

func newFakeApplier(n int) *fakeApplier {
	a := &fakeApplier{nextID: model.NodeID(n + 1)}
	for i := 2; i <= n; i++ { // node 1 is the protected source
		a.members = append(a.members, model.NodeID(i))
	}
	return a
}

func (a *fakeApplier) log(format string, args ...any) {
	a.calls = append(a.calls, fmt.Sprintf(format, args...))
}

func (a *fakeApplier) Join(r model.Round, id model.NodeID) (model.NodeID, error) {
	if a.failAll {
		return model.NoNode, fmt.Errorf("induced failure")
	}
	if id == model.NoNode {
		id = a.nextID
		a.nextID++
	}
	a.members = append(a.members, id)
	a.log("join %v@%v", id, r)
	return id, nil
}

func (a *fakeApplier) remove(id model.NodeID) {
	for i, m := range a.members {
		if m == id {
			a.members = append(a.members[:i], a.members[i+1:]...)
			return
		}
	}
}

func (a *fakeApplier) Leave(r model.Round, id model.NodeID) error {
	if a.failAll {
		return fmt.Errorf("induced failure")
	}
	a.remove(id)
	a.log("leave %v@%v", id, r)
	return nil
}

func (a *fakeApplier) Crash(r model.Round, id model.NodeID, linger int) error {
	a.remove(id)
	a.log("crash %v@%v linger=%d", id, r, linger)
	return nil
}

func (a *fakeApplier) SetLossRate(rate float64)          { a.log("loss %g", rate) }
func (a *fakeApplier) Partition(groups [][]model.NodeID) { a.log("partition %v", groups) }
func (a *fakeApplier) Heal()                             { a.log("heal") }
func (a *fakeApplier) SetQueueCap(id model.NodeID, kbps, deadlineRounds int) {
	a.log("qcap %v %dkbps d=%d", id, kbps, deadlineRounds)
}
func (a *fakeApplier) SetBehavior(id model.NodeID, p BehaviorProfile) error {
	a.log("behavior %v %s", id, p)
	return nil
}
func (a *fakeApplier) ChurnTargets() []model.NodeID {
	return append([]model.NodeID(nil), a.members...)
}

func TestValidateRejectsBadScripts(t *testing.T) {
	cases := []Scenario{
		{Name: "no-rounds"},
		{Name: "warmup-too-long", Rounds: 5, WarmupRounds: 5},
		{Name: "event-out-of-range", Rounds: 5,
			Events: []Event{{Round: 9, Action: ActionHeal}}},
		{Name: "unknown-action", Rounds: 5,
			Events: []Event{{Round: 1, Action: "explode"}}},
		{Name: "bad-loss", Rounds: 5,
			Events: []Event{{Round: 1, Action: ActionSetLoss, Rate: 1.5}}},
		{Name: "certain-loss", Rounds: 5,
			Events: []Event{{Round: 1, Action: ActionSetLoss, Rate: 1}}},
		{Name: "empty-partition", Rounds: 5,
			Events: []Event{{Round: 1, Action: ActionPartition}}},
		{Name: "behavior-no-node", Rounds: 5,
			Events: []Event{{Round: 1, Action: ActionSetBehavior, Behavior: ProfileFreeRider}}},
		{Name: "behavior-unknown-profile", Rounds: 5,
			Events: []Event{{Round: 1, Action: ActionSetBehavior, Node: 2, Behavior: "saint"}}},
		{Name: "queue-cap-negative", Rounds: 5,
			Events: []Event{{Round: 1, Action: ActionSetQueueCap, CapKbps: -5}}},
		{Name: "queue-cap-bad-deadline", Rounds: 5,
			Events: []Event{{Round: 1, Action: ActionSetQueueCap, DeadlineRounds: -2}}},
		{Name: "bad-churn-window", Rounds: 5,
			Churn: &Churn{FromRound: 4, ToRound: 2, JoinsPerRound: 1}},
		{Name: "bad-crash-fraction", Rounds: 5,
			Churn: &Churn{FromRound: 1, ToRound: 5, CrashFraction: 2}},
	}
	for _, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("scenario %q validated but should not", s.Name)
		}
	}
}

// TestQueueCapDisableExpiryValidates: deadline_rounds -1 is the scripted
// form of the store-and-forward ablation (expiry off) and must validate.
func TestQueueCapDisableExpiryValidates(t *testing.T) {
	s := Scenario{Name: "ablate", Rounds: 3, Events: []Event{
		{Round: 1, Action: ActionSetQueueCap, CapKbps: 50, DeadlineRounds: -1},
	}}
	if err := s.Validate(); err != nil {
		t.Fatalf("expiry-off ablation rejected: %v", err)
	}
	roundTrip(t, s)
}

func TestJSONRoundTrip(t *testing.T) {
	s := SteadyChurn(0.5, 0.25, 5, 20)
	s.Events = append(s.Events, Event{Round: 7, Action: ActionSetLoss, Rate: 0.1})
	got, err := ParseJSON(s.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip changed the scenario:\n%+v\nvs\n%+v", s, got)
	}
}

func TestTimelineFiresInRoundOrder(t *testing.T) {
	s := Scenario{
		Name: "ordered", Rounds: 10,
		Events: []Event{
			{Round: 3, Action: ActionSetLoss, Rate: 0.2},
			{Round: 1, Action: ActionPartition, Groups: [][]model.NodeID{{2, 3}}},
			{Round: 3, Action: ActionHeal},
		},
	}
	tl, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	a := newFakeApplier(5)
	for r := model.Round(1); r <= 10; r++ {
		tl.Apply(r, a)
	}
	want := []string{"partition [[n2 n3]]", "loss 0.2", "heal"}
	if !reflect.DeepEqual(a.calls, want) {
		t.Fatalf("calls = %v, want %v", a.calls, want)
	}
	if len(tl.Journal()) != 3 {
		t.Fatalf("journal has %d entries", len(tl.Journal()))
	}
}

// TestQueueCapFansOutToAllMembers: a set_queue_cap with no node targets
// every current non-source member in ascending order — one journal entry,
// N applier calls.
func TestQueueCapFansOutToAllMembers(t *testing.T) {
	s := Scenario{Name: "qcap-all", Rounds: 4, Events: []Event{
		{Round: 2, Action: ActionSetQueueCap, CapKbps: 90, DeadlineRounds: 3},
		{Round: 3, Action: ActionSetQueueCap, Node: 4, CapKbps: 45},
	}}
	tl, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	a := newFakeApplier(5) // members 2..5, source excluded
	for r := model.Round(1); r <= 4; r++ {
		tl.Apply(r, a)
	}
	want := []string{
		"qcap n2 90kbps d=3", "qcap n3 90kbps d=3",
		"qcap n4 90kbps d=3", "qcap n5 90kbps d=3",
		"qcap n4 45kbps d=0",
	}
	if !reflect.DeepEqual(a.calls, want) {
		t.Fatalf("calls = %v, want %v", a.calls, want)
	}
	j := tl.Journal()
	if len(j) != 2 {
		t.Fatalf("journal has %d entries, want 2 (the sweep is one event)", len(j))
	}
	if j[0].Detail != "cap=90kbps deadline=3r nodes=4" {
		t.Fatalf("sweep journal detail %q", j[0].Detail)
	}
}

func TestChurnExpansionDeterministic(t *testing.T) {
	run := func() []string {
		s := SteadyChurn(0.7, 0.5, 2, 30)
		tl, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		a := newFakeApplier(10)
		for r := model.Round(1); r <= 30; r++ {
			tl.Apply(r, a)
		}
		return a.calls
	}
	c1, c2 := run(), run()
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("same seed diverged:\n%v\nvs\n%v", c1, c2)
	}
	joins, departs := 0, 0
	for _, c := range c1 {
		switch c[0] {
		case 'j':
			joins++
		case 'l', 'c':
			departs++
		}
	}
	// 0.7/round over 28 in-window rounds ≈ 19 each way (uniform credit).
	if joins < 15 || joins > 23 || departs < 15 || departs > 23 {
		t.Fatalf("churn volume off: %d joins, %d departures", joins, departs)
	}
}

func TestPoissonChurnHasSameMean(t *testing.T) {
	s := Scenario{
		Name: "poisson", Rounds: 400, Seed: 7,
		Churn: &Churn{FromRound: 1, ToRound: 400, JoinsPerRound: 0.5,
			Distribution: DistPoisson},
	}
	tl, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	a := newFakeApplier(10)
	for r := model.Round(1); r <= 400; r++ {
		tl.Apply(r, a)
	}
	// Mean 0.5 over 400 rounds → ~200 joins; Poisson sd ≈ 14.
	if len(a.calls) < 140 || len(a.calls) > 260 {
		t.Fatalf("poisson volume far from mean: %d events", len(a.calls))
	}
}

func TestApplyFailureIsJournaledNotFatal(t *testing.T) {
	s := Scenario{Name: "fail", Rounds: 3, Events: []Event{
		{Round: 1, Action: ActionJoin},
		{Round: 2, Action: ActionHeal},
	}}
	tl, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	a := newFakeApplier(5)
	a.failAll = true
	tl.Apply(1, a)
	tl.Apply(2, a)
	j := tl.Journal()
	if len(j) != 2 || j[0].Err == "" || j[1].Err != "" {
		t.Fatalf("journal = %+v", j)
	}
}

func TestCannedScenariosValidate(t *testing.T) {
	for _, name := range Names() {
		s, err := ByName(name, 20, 60)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("canned scenario %q invalid: %v", name, err)
		}
		if _, err := Compile(s); err != nil {
			t.Errorf("canned scenario %q does not compile: %v", name, err)
		}
	}
	if _, err := ByName("nope", 20, 60); err == nil {
		t.Fatal("unknown canned name accepted")
	}
}
