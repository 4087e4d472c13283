package pag

import (
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// quick session options for tests: tiny crypto, small systems.
func testConfig(protocol Protocol, nodes, kbps int) SessionConfig {
	return SessionConfig{
		Nodes:       nodes,
		Protocol:    protocol,
		StreamKbps:  kbps,
		UpdateBytes: 64,
		ModulusBits: 128,
		Seed:        7,
	}
}

func TestSessionDefaults(t *testing.T) {
	c := SessionConfig{Nodes: 432}.withDefaults()
	if c.Protocol != ProtocolPAG || c.StreamKbps != 300 ||
		c.UpdateBytes != model.UpdateBytes || c.Fanout != 3 ||
		c.Monitors != 3 || c.ModulusBits != 512 || c.PrimeBits != 512 ||
		c.Seed != 1 {
		t.Fatalf("defaults: %+v", c)
	}
	// TTL defaults to saturation (log_{f+1} 432 ≈ 5) plus two rounds.
	if c.TTL != 7 {
		t.Fatalf("TTL default = %v, want 7", c.TTL)
	}
	// Tiny systems keep the floor; huge ones cap at the playout delay.
	if small := (SessionConfig{Nodes: 8}).withDefaults(); small.TTL != 4 {
		t.Fatalf("small-system TTL = %v, want 4", small.TTL)
	}
	if big := (SessionConfig{Nodes: 5_000_000}).withDefaults(); big.TTL != 10 {
		t.Fatalf("big-system TTL = %v, want 10", big.TTL)
	}
}

func TestSessionValidation(t *testing.T) {
	if _, err := NewSession(SessionConfig{Nodes: 3}); err == nil {
		t.Fatal("3-node session accepted")
	}
}

func TestProtocolStrings(t *testing.T) {
	if ProtocolPAG.String() != "PAG" || ProtocolAcTinG.String() != "AcTinG" ||
		ProtocolRAC.String() != "RAC" {
		t.Fatal("protocol names")
	}
	if Protocol(9).String() == "" {
		t.Fatal("unknown protocol name empty")
	}
}

func TestPAGSessionEndToEnd(t *testing.T) {
	s, err := NewSession(testConfig(ProtocolPAG, 16, 2))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(4)
	s.StartMeasuring()
	s.Run(12)

	if got := s.Round(); got != 16 {
		t.Fatalf("Round = %v", got)
	}
	if len(s.PAGVerdicts()) != 0 {
		t.Fatalf("verdicts in an honest run: %v", s.PAGVerdicts())
	}
	if bw := s.BandwidthSample(); bw.Len() != 15 || bw.Mean() <= 0 {
		t.Fatalf("bandwidth sample: len %d mean %v", bw.Len(), bw.Mean())
	}
	if c := s.MeanContinuity(); c < 0.95 {
		t.Fatalf("mean continuity %v, want ≈ 1", c)
	}
	if s.Emitted() == 0 {
		t.Fatal("source emitted nothing")
	}
	stats := s.PAGNodeStats()
	if len(stats) != 16 {
		t.Fatalf("stats for %d nodes", len(stats))
	}
	for id, st := range stats {
		if st.HashOps == 0 || st.SigOps == 0 {
			t.Fatalf("node %v has empty counters", id)
		}
	}
	if s.Config().Fanout != 3 {
		t.Fatal("config accessor")
	}
	if s.Player(2) == nil || s.Player(2).Delivered() == 0 {
		t.Fatal("player 2 empty")
	}
}

func TestActingSessionEndToEnd(t *testing.T) {
	s, err := NewSession(testConfig(ProtocolAcTinG, 16, 2))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(16)
	if len(s.ActingVerdicts()) != 0 {
		t.Fatalf("verdicts in an honest run: %v", s.ActingVerdicts())
	}
	if c := s.MeanContinuity(); c < 0.9 {
		t.Fatalf("mean continuity %v", c)
	}
}

func TestRACSessionEndToEnd(t *testing.T) {
	s, err := NewSession(testConfig(ProtocolRAC, 12, 1))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(16)
	if len(s.RACVerdicts()) != 0 {
		t.Fatalf("verdicts in an honest run: %v", s.RACVerdicts())
	}
	if c := s.MeanContinuity(); c < 0.5 {
		t.Fatalf("mean continuity %v", c)
	}
}

// TestPAGCostlierThanActing is Fig 7's headline at miniature scale: same
// workload, PAG spends more bandwidth than AcTinG (the price of forced
// reception and monitoring), and both deliver the stream.
func TestPAGCostlierThanActing(t *testing.T) {
	run := func(p Protocol) float64 {
		s, err := NewSession(testConfig(p, 16, 4))
		if err != nil {
			t.Fatal(err)
		}
		s.Run(4)
		s.StartMeasuring()
		s.Run(10)
		return s.BandwidthSample().Mean()
	}
	pagBW, actBW := run(ProtocolPAG), run(ProtocolAcTinG)
	if pagBW <= actBW {
		t.Fatalf("PAG (%v kbps) not costlier than AcTinG (%v kbps)", pagBW, actBW)
	}
}

// TestSelfishInjectionThroughFacade verifies the behaviour plumbing.
func TestSelfishInjectionThroughFacade(t *testing.T) {
	cfg := testConfig(ProtocolPAG, 16, 2)
	cfg.PAGBehaviors = map[model.NodeID]core.Behavior{
		5: {DropUpdates: 1},
	}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(10)
	found := false
	for _, v := range s.PAGVerdicts() {
		if v.Accused == 5 && v.Kind == core.VerdictWrongForward {
			found = true
		}
	}
	if !found {
		t.Fatalf("injected cheat not convicted: %v", s.PAGVerdicts())
	}
}

func TestConvictedNodes(t *testing.T) {
	cfg := testConfig(ProtocolPAG, 16, 2)
	cfg.PAGBehaviors = map[model.NodeID]core.Behavior{
		9: {SkipServeEvery: 1},
	}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(8)
	convicted := s.ConvictedNodes(3)
	if convicted[9] < 3 {
		t.Fatalf("persistent free-rider not over threshold: %v", convicted)
	}
	for id := range convicted {
		if id != 9 {
			t.Fatalf("honest node %v convicted: %v", id, convicted)
		}
	}
	// A high threshold filters everything.
	if len(s.ConvictedNodes(1<<20)) != 0 {
		t.Fatal("threshold filter broken")
	}
}

func TestBuffermapAblationThroughFacade(t *testing.T) {
	cfg := testConfig(ProtocolPAG, 12, 2)
	cfg.BuffermapWindow = -1
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(8)
	for _, st := range s.PAGNodeStats() {
		if st.RefsSent != 0 {
			t.Fatal("refs sent with buffermap disabled")
		}
	}
}

// TestServeSplitMatchesFullWidthBuffermap pins the payload/reference
// decision of every node: its PayloadsSent and RefsSent after 16 rounds of
// this session. The values were first recorded at the last commit that
// shipped whole hash values (5eabdd5) and the 64-bit tags reproduced them
// exactly; they were recorded again when exchange slots and the live-set
// map moved the split on purpose — each node's sum is what it was (the
// same items are served), with half the payloads now references.
func TestServeSplitMatchesFullWidthBuffermap(t *testing.T) {
	recorded := [16][2]uint64{
		{960, 1065}, {165, 1050}, {270, 1080}, {105, 1290}, {210, 1275}, {270, 1530},
		{270, 1305}, {180, 1215}, {90, 1485}, {30, 1185}, {165, 1275}, {75, 1230},
		{135, 1395}, {195, 1110}, {120, 1275}, {135, 1215},
	}
	s, err := NewSession(SessionConfig{Nodes: 16, StreamKbps: 16, UpdateBytes: 128, ModulusBits: 128, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(16)
	stats := s.PAGNodeStats()
	for i, want := range recorded {
		st := stats[NodeID(i+1)]
		if got := [2]uint64{st.PayloadsSent, st.RefsSent}; got != want {
			t.Errorf("node %d sent %d payloads and %d refs, recorded %d and %d",
				i+1, got[0], got[1], want[0], want[1])
		}
	}
}
