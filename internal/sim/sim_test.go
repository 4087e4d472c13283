package sim

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
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

// pacedRecorder is a SteppedNetwork stub that records every paced barrier's
// deadline and delivers nothing.
type pacedRecorder struct {
	transport.SteppedNetwork
	deadlines []time.Time
}

func (p *pacedRecorder) BeginRound() {}
func (p *pacedRecorder) DeliverUntil(t time.Time) int {
	p.deadlines = append(p.deadlines, t)
	return 0
}

// slottedStub is a Slotted node with a fixed slot count.
type slottedStub struct {
	phaseRecorder
	slots int
}

func (s *slottedStub) ExchangeSlots() int            { return s.slots }
func (s *slottedStub) OpenSlot(r model.Round, k int) {}

// TestRunPacedDeadlines: a paced round drains the network until each
// phase's wall-clock deadline — the S exchange slots split the first
// quarter of the period, MidRound, EndRound and CloseRound get a quarter
// each — and round r is laid out from start + (r−1)·period.
func TestRunPacedDeadlines(t *testing.T) {
	start := time.Unix(1000, 0)
	const period = 1200 * time.Millisecond
	ms := func(n int) time.Time { return start.Add(time.Duration(n) * time.Millisecond) }
	for _, c := range []struct {
		slots int
		want  []time.Time // round 2's barriers
	}{
		{1, []time.Time{ms(1500), ms(1800), ms(2100), ms(2400)}},
		{3, []time.Time{ms(1300), ms(1400), ms(1500), ms(1800), ms(2100), ms(2400)}},
	} {
		net := &pacedRecorder{}
		e, err := NewEngine(net, 1)
		if err != nil {
			t.Fatal(err)
		}
		var calls []string
		e.Add(&slottedStub{phaseRecorder: phaseRecorder{id: 1, calls: &calls}, slots: c.slots})
		e.RunPaced(start, period)
		e.RunPaced(start, period)
		if got := net.deadlines[len(net.deadlines)/2:]; !slices.Equal(got, c.want) {
			t.Errorf("S=%d: round 2 deadlines %v, want %v", c.slots, got, c.want)
		}
		if e.Round() != 2 || len(calls) != 8 {
			t.Errorf("S=%d: round %v after %v", c.slots, e.Round(), calls)
		}
	}
}

// TestRunPacedCountsOverruns: a step that finishes past its phase's
// deadline is counted — every step of a round laid out in the past, none
// of one laid out ahead — and a network without a clock counts none.
func TestRunPacedCountsOverruns(t *testing.T) {
	for _, c := range []struct {
		start time.Time
		want  int
	}{
		{time.Unix(1000, 0), 2 * 6}, // 3 slots + MidRound, EndRound, CloseRound
		{time.Now().Add(time.Hour), 0},
	} {
		e, err := NewEngine(&pacedRecorder{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		e.Instrument(reg, nil)
		var calls []string
		e.Add(&slottedStub{phaseRecorder: phaseRecorder{id: 1, calls: &calls}, slots: 3})
		e.RunPaced(c.start, time.Second)
		e.RunPaced(c.start, time.Second)
		if got := e.PacedOverruns(); got != c.want {
			t.Errorf("start %v: %d overruns, want %d", c.start, got, c.want)
		}
		snap := reg.Snapshot()
		if got := snap.Total("pag_engine_paced_overruns"); got != float64(e.PacedOverruns()) {
			t.Errorf("start %v: gauge pag_engine_paced_overruns = %v, PacedOverruns() = %d", c.start, got, e.PacedOverruns())
		}
		if strings.Contains(snap.DeterministicText(), "pag_engine_paced_overruns") {
			t.Errorf("start %v: the wall-clock overrun gauge is in the deterministic snapshot", c.start)
		}
	}
	e, _ := NewEngine(transport.NewMemNet(), 1)
	e.RunPaced(time.Unix(1000, 0), time.Second)
	if got := e.PacedOverruns(); got != 0 {
		t.Errorf("MemNet: %d overruns, want 0", got)
	}
}
