package sim

import (
	"testing"

	"repro/internal/model"
	"repro/internal/transport"
)

// phaseRecorder records the phase call sequence.
type phaseRecorder struct {
	id    model.NodeID
	calls *[]string
	ep    transport.Endpoint
	peer  model.NodeID
}

func (p *phaseRecorder) ID() model.NodeID { return p.id }

func (p *phaseRecorder) BeginRound(r model.Round) {
	*p.calls = append(*p.calls, "begin")
	if p.ep != nil {
		_ = p.ep.Send(p.peer, 1, []byte("hello"))
	}
}
func (p *phaseRecorder) MidRound(r model.Round)   { *p.calls = append(*p.calls, "mid") }
func (p *phaseRecorder) EndRound(r model.Round)   { *p.calls = append(*p.calls, "end") }
func (p *phaseRecorder) CloseRound(r model.Round) { *p.calls = append(*p.calls, "close") }

func TestEnginePhaseOrder(t *testing.T) {
	net := transport.NewMemNet()
	e, _ := NewEngine(net, 0)
	var calls []string
	n1 := &phaseRecorder{id: 1, calls: &calls}
	e.Add(n1)
	if _, err := net.Register(1, func(transport.Message) {}); err != nil {
		t.Fatal(err)
	}
	e.RunRound()
	want := []string{"begin", "mid", "end", "close"}
	if len(calls) != len(want) {
		t.Fatalf("calls = %v", calls)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("calls = %v, want %v", calls, want)
		}
	}
	if e.Round() != 1 {
		t.Fatalf("Round = %v", e.Round())
	}
}

func TestEngineHooksRunFirst(t *testing.T) {
	net := transport.NewMemNet()
	e, _ := NewEngine(net, 0)
	var calls []string
	e.OnRoundStart(func(r model.Round) { calls = append(calls, "hook") })
	e.Add(&phaseRecorder{id: 1, calls: &calls})
	if _, err := net.Register(1, func(transport.Message) {}); err != nil {
		t.Fatal(err)
	}
	e.RunRound()
	if calls[0] != "hook" {
		t.Fatalf("hook did not run first: %v", calls)
	}
}

func TestEngineDeliversBetweenPhases(t *testing.T) {
	net := transport.NewMemNet()
	e, _ := NewEngine(net, 0)
	var calls []string
	received := 0
	if _, err := net.Register(2, func(transport.Message) { received++ }); err != nil {
		t.Fatal(err)
	}
	ep, err := net.Register(1, func(transport.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	e.Add(&phaseRecorder{id: 1, calls: &calls, ep: ep, peer: 2})
	e.RunRound()
	if received != 1 {
		t.Fatalf("message not delivered during the round: %d", received)
	}
}

func TestBandwidthMeasurement(t *testing.T) {
	net := transport.NewMemNet()
	e, _ := NewEngine(net, 0)
	var calls []string
	if _, err := net.Register(2, func(transport.Message) {}); err != nil {
		t.Fatal(err)
	}
	ep, err := net.Register(1, func(transport.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 sends 1000 payload bytes to node 2 every round.
	sender := &phaseRecorder{id: 1, calls: &calls, ep: ep, peer: 2}
	e.Add(sender)
	e.Add(&phaseRecorder{id: 2, calls: &calls})

	e.Run(2) // warm-up, unmeasured
	if e.NodeBandwidthKbps(1) != 0 {
		t.Fatal("bandwidth reported before StartMeasuring")
	}
	e.StartMeasuring()
	e.Run(4)

	// Per round: one message of (40 header + 5 payload) bytes. Sender
	// bandwidth = (out+in)/2 = 45/2 bytes/s = 0.18 kbps.
	want := float64(45) * 8 / 1000 / 2
	if got := e.NodeBandwidthKbps(1); got != want {
		t.Fatalf("sender bandwidth %v, want %v", got, want)
	}
	if got := e.NodeBandwidthKbps(2); got != want {
		t.Fatalf("receiver bandwidth %v, want %v", got, want)
	}

	sample := e.BandwidthSample()
	if sample.Len() != 2 {
		t.Fatalf("sample size %d", sample.Len())
	}
	sample = e.BandwidthSample(1)
	if sample.Len() != 1 {
		t.Fatalf("excluding sample size %d", sample.Len())
	}
}

func TestEngineString(t *testing.T) {
	e, _ := NewEngine(transport.NewMemNet(), 0)
	if e.String() == "" || e.Nodes() != 0 {
		t.Fatal("String/Nodes wrong")
	}
}
