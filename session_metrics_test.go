package pag

import (
	"testing"

	"repro/internal/acting"
	"repro/internal/core"
)

// Edge-case coverage for the session metric accessors.

func TestMeanContinuityZeroElapsed(t *testing.T) {
	s, err := NewSession(testConfig(ProtocolPAG, 12, 2))
	if err != nil {
		t.Fatal(err)
	}
	// No rounds run: nothing is due, continuity must be 0, not NaN.
	if c := s.MeanContinuity(); c != 0 {
		t.Fatalf("continuity %v before any round", c)
	}
	// Fewer rounds than the TTL: still no chunk has reached its
	// deadline.
	s.Run(int(s.Config().TTL))
	if c := s.MeanContinuity(); c != 0 {
		t.Fatalf("continuity %v with no deadline passed", c)
	}
	// One round past the TTL, the first chunks come due.
	s.Run(1)
	if c := s.MeanContinuity(); c <= 0 || c > 1 {
		t.Fatalf("continuity %v just past the TTL, want (0, 1]", c)
	}
}

func TestMeanContinuityExcludesSource(t *testing.T) {
	s, err := NewSession(testConfig(ProtocolPAG, 12, 2))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(10)
	// The source never "plays" its own stream; if it were counted the
	// mean of an otherwise-perfect run would dip below 1.
	if c := s.MeanContinuity(); c < 0.999 {
		t.Fatalf("continuity %v, the source is dragging the mean", c)
	}
}

func TestConvictedNodesThresholdBoundaries(t *testing.T) {
	s, err := NewSession(testConfig(ProtocolPAG, 12, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Verdict{
		{Round: 1, Accused: 4}, {Round: 2, Accused: 4}, {Round: 3, Accused: 5},
	} {
		s.Judicial().Submit(v)
	}
	if got := s.ConvictedNodes(0); len(got) != 2 {
		t.Fatalf("threshold 0: %v", got)
	}
	got := s.ConvictedNodes(2)
	if len(got) != 1 || got[4] != 2 {
		t.Fatalf("threshold 2: %v (exactly-at-threshold must count)", got)
	}
	if got := s.ConvictedNodes(3); len(got) != 0 {
		t.Fatalf("threshold 3: %v", got)
	}
}

func TestConvictedNodesMixedProtocolLists(t *testing.T) {
	// A session only raises one protocol's kinds, but ConvictedNodes
	// counts every kind — counts must aggregate across them per accused
	// node.
	s, err := NewSession(testConfig(ProtocolPAG, 12, 2))
	if err != nil {
		t.Fatal(err)
	}
	s.Judicial().Submit(Verdict{Round: 1, Kind: core.VerdictNoForward, Accused: 7})
	s.Judicial().Submit(Verdict{Round: 2, Kind: acting.VerdictRefusedAudit, Accused: 7})
	s.Judicial().Submit(Verdict{Round: 2, Kind: acting.VerdictRefusedAudit, Accused: 8})
	s.Judicial().Submit(Verdict{Round: 3, Kind: acting.VerdictTamperedLog, Accused: 7})
	got := s.ConvictedNodes(3)
	if len(got) != 1 || got[7] != 3 {
		t.Fatalf("mixed lists: %v, want node 7 with 3 verdicts", got)
	}
	if got := s.ConvictedNodes(1); got[8] != 1 {
		t.Fatalf("single-verdict node lost: %v", got)
	}
}

func TestEpochStatsBeforeAnyRound(t *testing.T) {
	s, err := NewSession(testConfig(ProtocolPAG, 12, 2))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.EpochStats(); st != nil {
		t.Fatalf("epoch stats before any round: %v", st)
	}
	s.Run(6)
	st := s.EpochStats()
	if len(st) != 1 || st[0].StartRound != 1 || st[0].EndRound != 6 ||
		st[0].Members != 12 {
		t.Fatalf("static run epoch stats: %+v", st)
	}
	if st[0].MeanBandwidthKbps <= 0 {
		t.Fatal("epoch bandwidth empty")
	}
}
