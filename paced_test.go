package pag

import (
	"bytes"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/transport"
)

// TestPacedMatchesStepped: RunPaced steps the same phases as Run and only
// drains differently at its barriers; MemNet, which has no clock, drains
// completely at either. So a paced report of steady-churn is byte-identical
// to the stepped one, inline and sharded.
func TestPacedMatchesStepped(t *testing.T) {
	const nodes = 20
	sc, err := scenario.ByName("steady-churn", nodes, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 3
	start := time.Now()
	paced := func(s *Session, n int) { s.RunPaced(n, start, time.Second) }
	for _, workers := range []int{1, 4} {
		cfg := SessionConfig{Nodes: nodes, StreamKbps: 2, UpdateBytes: 64, ModulusBits: 128, Seed: 3, Workers: workers}
		want, err := RunScenarioReport(cfg, sc, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runScenarioReport(cfg, sc, nil, 1, paced)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(strippedJSON(got), strippedJSON(want)) || got.Digest() != want.Digest() {
			t.Errorf("workers %d: paced report %s differs from stepped %s", workers, got.Digest(), want.Digest())
		}
	}
}

// runPacedSessions runs one deployment as separate processes would: one
// session per hosted set, each over its own TCPNet on a static loopback
// roster of the ids 1 to roster, session i starting lag·i behind session 0,
// all paced for sc.Rounds rounds. The sessions are closed when the test
// ends.
func runPacedSessions(t *testing.T, base SessionConfig, sc scenario.Scenario, roster int,
	hosted [][]model.NodeID, period, lag time.Duration) []*Session {
	t.Helper()
	book := make(map[model.NodeID]string, roster)
	for id := model.NodeID(1); int(id) <= roster; id++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		book[id] = ln.Addr().String()
		_ = ln.Close()
	}
	sessions := make([]*Session, len(hosted))
	nets := make([]*transport.TCPNet, len(hosted))
	for i := range hosted {
		cfg := base
		cfg.Scenario, cfg.Hosted = &sc, hosted[i]
		cfg.NewNetwork = func() transport.FaultyNetwork {
			nets[i] = transport.NewTCPNet(book)
			return nets[i]
		}
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		sessions[i] = s
	}
	start := time.Now().Add(period)
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			at := start.Add(time.Duration(i) * lag)
			nets[i].DeliverUntil(at)
			s.RunPaced(sc.Rounds, at, period)
		}()
	}
	wg.Wait()
	for i, s := range sessions {
		for _, v := range s.Verdicts() {
			t.Errorf("session %d convicted a correct node: %v (%d paced steps overran their deadline)",
				i, v, s.PacedOverruns())
		}
	}
	return sessions
}

// TestTCPSessionsPacedHostHalves: one deployment, two sessions — one hosts
// nodes 1–4, the other 5–8 — on a static loopback roster, paced at 400 ms
// under 5 % loss and a leave. Each applies the whole script to its view,
// so both journal the same events; no correct node is convicted; and every
// hosted client plays something out.
func TestTCPSessionsPacedHostHalves(t *testing.T) {
	sc := scenario.Scenario{Name: "halves", Rounds: 12, Events: []scenario.Event{
		{Round: 2, Action: scenario.ActionSetLoss, Rate: 0.05},
		{Round: 8, Action: scenario.ActionLeave, Node: 7},
	}}
	halves := [][]model.NodeID{{1, 2, 3, 4}, {5, 6, 7, 8}}
	sessions := runPacedSessions(t, SessionConfig{Nodes: 8, StreamKbps: 20, ModulusBits: 128, Seed: 1},
		sc, 8, halves, 400*time.Millisecond, 0)
	if a, b := sessions[0].ScenarioJournal(), sessions[1].ScenarioJournal(); !reflect.DeepEqual(a, b) || len(a) != 2 {
		t.Errorf("journals differ:\n%+v\n%+v", a, b)
	}
	for i, s := range sessions {
		for _, id := range halves[i] {
			if id != SourceID && s.Player(id).Delivered() == 0 {
				t.Errorf("hosted client %v delivered nothing (%d paced steps overran their deadline)",
					id, s.PacedOverruns())
			}
		}
		if s.Player(halves[1-i][0]) != nil {
			t.Errorf("session %d built a node it does not host", i)
		}
	}
}

// TestTCPLateJoinerPaced: a standby joiner's session runs 10 ms behind the
// session hosting the founders, as a separate process would. Its peers
// reach the join round first and open their exchanges with it at once, so
// it must already listen, and its node must keep requests that arrive
// before its first round for that round — otherwise each one is lost to a
// probe, and the joiner is convicted of WrongForward the round after.
func TestTCPLateJoinerPaced(t *testing.T) {
	sc := scenario.Scenario{Name: "late-joiner", Rounds: 8, Events: []scenario.Event{
		{Round: 4, Action: scenario.ActionJoin},
	}}
	sessions := runPacedSessions(t, SessionConfig{Nodes: 5, StreamKbps: 60, ModulusBits: 128, Seed: 1},
		sc, 6, [][]model.NodeID{{1, 2, 3, 4, 5}, {6}}, 300*time.Millisecond, 10*time.Millisecond)
	if sessions[1].Player(6).Delivered() == 0 {
		t.Errorf("the joiner delivered nothing (%d paced steps overran their deadline)",
			sessions[1].PacedOverruns())
	}
}
