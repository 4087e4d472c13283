package scenario

import (
	"reflect"
	"testing"

	"repro/internal/model"
)

// These tests lock the scenario wire format: ParseJSON(s.JSON()) must
// reproduce s exactly, field for field. With pag-node shipping scenarios
// between processes (every process compiles the same timeline from the
// same document), a lossy or drifting encoding would silently desynchronise
// a deployment.

// roundTrip asserts ParseJSON∘JSON is the identity on s.
func roundTrip(t *testing.T, s Scenario) {
	t.Helper()
	got, err := ParseJSON(s.JSON())
	if err != nil {
		t.Fatalf("%s: re-parsing own JSON: %v", s.Name, err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("%s: round trip not identity\nin:  %+v\nout: %+v", s.Name, s, got)
	}
}

func TestJSONRoundTripCannedScenarios(t *testing.T) {
	for _, name := range Names() {
		s, err := ByName(name, 16, 60)
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, s)
	}
}

// randomScenario builds a valid scenario from a seeded PRNG: every event
// type, both churn distributions, boundary rounds. Generated fields stay
// in their valid ranges so Validate (inside ParseJSON) passes.
func randomScenario(rng *model.SplitMix64, i int) Scenario {
	rounds := 2 + int(rng.Next()%40)
	s := Scenario{
		Name:         "fuzz",
		Description:  "seeded random timeline",
		Seed:         rng.Next(),
		Rounds:       rounds,
		WarmupRounds: int(rng.Next() % uint64(rounds)),
	}
	pick := func() model.Round { return model.Round(1 + rng.Next()%uint64(rounds)) }
	node := func() model.NodeID { return model.NodeID(2 + rng.Next()%30) }
	nEvents := int(rng.Next() % 8)
	for e := 0; e < nEvents; e++ {
		switch rng.Next() % 10 {
		case 0:
			s.Events = append(s.Events, Event{Round: pick(), Action: ActionJoin})
		case 1:
			s.Events = append(s.Events, Event{Round: pick(), Action: ActionLeave, Node: node()})
		case 2:
			s.Events = append(s.Events, Event{
				Round: pick(), Action: ActionCrash, Node: node(),
				LingerRounds: int(rng.Next() % 4),
			})
		case 3, 4:
			s.Events = append(s.Events, Event{Round: pick(), Action: ActionSetLoss, Rate: rng.Float()})
		case 5:
			s.Events = append(s.Events, Event{
				Round: pick(), Action: ActionPartition,
				Groups: [][]model.NodeID{{node(), node()}, {node()}},
			})
		case 6:
			s.Events = append(s.Events, Event{Round: pick(), Action: ActionHeal})
		case 7:
			s.Events = append(s.Events, Event{
				Round: pick(), Action: ActionSetUploadCap,
				Node: node(), CapKbps: int(rng.Next() % 2000),
			})
		case 8:
			profiles := []BehaviorProfile{ProfileCorrect, ProfileFreeRider, ProfileColluder}
			s.Events = append(s.Events, Event{
				Round: pick(), Action: ActionSetBehavior,
				Node: node(), Behavior: profiles[rng.Next()%3],
			})
		case 9:
			// set_queue_cap: sometimes population-wide (zero node),
			// sometimes targeted; deadline_rounds optional.
			var id model.NodeID
			if rng.Next()%2 == 0 {
				id = node()
			}
			s.Events = append(s.Events, Event{
				Round: pick(), Action: ActionSetQueueCap, Node: id,
				CapKbps:        int(rng.Next() % 2000),
				DeadlineRounds: int(rng.Next() % 12),
			})
		}
	}
	if i%2 == 0 {
		from := model.Round(1 + rng.Next()%uint64(rounds))
		dist := DistUniform
		if rng.Next()%2 == 0 {
			dist = DistPoisson
		}
		s.Churn = &Churn{
			FromRound:         from,
			ToRound:           from + model.Round(rng.Next()%uint64(rounds-int(from)+1)),
			JoinsPerRound:     rng.Float() * 3,
			LeavesPerRound:    rng.Float() * 3,
			CrashFraction:     rng.Float(),
			CrashLingerRounds: int(rng.Next() % 5),
			Distribution:      dist,
		}
	}
	return s
}

func TestJSONRoundTripRandomizedScenarios(t *testing.T) {
	rng := &model.SplitMix64{State: 0xC0FFEE}
	for i := 0; i < 200; i++ {
		s := randomScenario(rng, i)
		if err := s.Validate(); err != nil {
			t.Fatalf("case %d: generator produced an invalid scenario: %v", i, err)
		}
		roundTrip(t, s)
	}
}

// TestJSONRoundTripIsByteStable: a second render of the parsed document is
// byte-identical to the first — the property report digests rely on.
func TestJSONRoundTripIsByteStable(t *testing.T) {
	rng := &model.SplitMix64{State: 42}
	for i := 0; i < 50; i++ {
		s := randomScenario(rng, i)
		first := s.JSON()
		back, err := ParseJSON(first)
		if err != nil {
			t.Fatal(err)
		}
		if string(back.JSON()) != string(first) {
			t.Fatalf("case %d: re-rendered JSON differs", i)
		}
	}
}
