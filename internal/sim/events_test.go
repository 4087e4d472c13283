package sim

import (
	"testing"

	"repro/internal/model"
	"repro/internal/transport"
)

// TestRoundTopAddRemove: a node a round-r hook adds steps from round r
// on, and one a round-r hook removes no longer steps in round r.
func TestRoundTopAddRemove(t *testing.T) {
	net := transport.NewMemNet()
	e, _ := NewEngine(net, 0)
	var calls1, calls2 []string
	e.Add(&phaseRecorder{id: 1, calls: &calls1})
	e.OnRoundStart(func(r model.Round) {
		switch r {
		case 3:
			e.Add(&phaseRecorder{id: 2, calls: &calls2})
		case 4:
			e.Remove(1)
		}
	})

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
		t.Fatalf("node 1 still attached after its removal")
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
