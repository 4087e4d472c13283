package sim

import (
	"testing"

	"repro/internal/model"
	"repro/internal/transport"
)

func TestScheduleAtRunsBeforeHooksAndPhases(t *testing.T) {
	net := transport.NewMemNet()
	e, _ := NewEngine(net, 0)
	var calls []string
	e.OnRoundStart(func(model.Round) { calls = append(calls, "hook") })
	e.Add(&phaseRecorder{id: 1, calls: &calls})
	e.ScheduleAt(2, func(r model.Round) { calls = append(calls, "event") })
	e.Run(2)
	want := []string{
		"hook", "begin", "mid", "end", "close",
		"event", "hook", "begin", "mid", "end", "close",
	}
	if len(calls) != len(want) {
		t.Fatalf("calls = %v", calls)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("calls = %v, want %v", calls, want)
		}
	}
}

func TestAddAtRemoveAt(t *testing.T) {
	net := transport.NewMemNet()
	e, _ := NewEngine(net, 0)
	var calls1, calls2 []string
	e.Add(&phaseRecorder{id: 1, calls: &calls1})
	e.AddAt(3, &phaseRecorder{id: 2, calls: &calls2})
	e.RemoveAt(4, 1)

	e.Run(2)
	if e.Nodes() != 1 || len(calls2) != 0 {
		t.Fatalf("node 2 active before its join round: %d nodes", e.Nodes())
	}
	e.RunRound() // round 3: node 2 joins
	if e.Nodes() != 2 || len(calls2) != 4 {
		t.Fatalf("node 2 missing after join: %d nodes, %d calls", e.Nodes(), len(calls2))
	}
	e.RunRound() // round 4: node 1 removed before phases
	if e.Nodes() != 1 || e.Has(1) || !e.Has(2) {
		t.Fatalf("node 1 still attached after RemoveAt")
	}
	if len(calls1) != 3*4 {
		t.Fatalf("node 1 ran %d phase calls, want 12 (3 rounds)", len(calls1))
	}
}

func TestRemoveUnknownNode(t *testing.T) {
	e, _ := NewEngine(transport.NewMemNet(), 0)
	e.Add(&phaseRecorder{id: 1, calls: new([]string)})
	if e.Remove(9) {
		t.Fatal("removed a node that was never added")
	}
	if !e.Remove(1) || e.Remove(1) {
		t.Fatal("Remove(1) bookkeeping wrong")
	}
}

func TestEngineResetsUploadBudgets(t *testing.T) {
	net := transport.NewMemNet()
	e, _ := NewEngine(net, 0)
	delivered := 0
	if _, err := net.Register(2, func(transport.Message) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	ep, err := net.Register(1, func(transport.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(transport.Message{Payload: []byte("hello")}.WireSize())
	net.Faults().SetUploadCap(1, size) // one message per round
	e.Add(&phaseRecorder{id: 1, calls: new([]string), ep: ep, peer: 2})
	e.Run(3)
	if delivered != 3 {
		t.Fatalf("delivered %d, want 3 (one per round under the cap)", delivered)
	}
}
