package pag

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/analytic"
	"repro/internal/model"
	"repro/internal/wire"
)

// forcedConfig is a PAG session of nodes members at Fanout = Monitors = f
// and the forwarding TTL of an n-node system, at Fig 9's measured setting
// (60 kbps, 128-bit hash, seed 3).
func forcedConfig(nodes, f, n, workers int) SessionConfig {
	return SessionConfig{Nodes: nodes, Fanout: f, Monitors: f, TTL: model.ForwardingTTL(n, f),
		StreamKbps: 60, ModulusBits: 128, Seed: 3, Workers: workers}
}

// forcedSession runs forcedConfig for Fig 9's 12 warm-up and 6 measured
// rounds and returns its bytes per node per round by wire kind and the
// session.
func forcedSession(t *testing.T, nodes, f, n, workers int) (map[string]float64, *Session) {
	t.Helper()
	return kindBytesPerNodeRound(t, forcedConfig(nodes, f, n, workers), 12, 6)
}

// sameOnFourWorkers runs cfg serially and on four workers for warmup +
// measure rounds: per-node kbps and continuity must be byte-identical.
func sameOnFourWorkers(t *testing.T, cfg SessionConfig, warmup, measure int) {
	t.Helper()
	cfg.Workers = 1
	_, serial := kindBytesPerNodeRound(t, cfg, warmup, measure)
	cfg.Workers = 4
	_, sharded := kindBytesPerNodeRound(t, cfg, warmup, measure)
	for id := model.NodeID(1); id <= model.NodeID(cfg.Nodes); id++ {
		if a, b := serial.NodeBandwidthKbps(id), sharded.NodeBandwidthKbps(id); a != b || a == 0 {
			t.Errorf("node %v: %v kbps serial, %v on four workers", id, a, b)
		}
	}
	if a, b := serial.MeanContinuity(), sharded.MeanContinuity(); a != b {
		t.Errorf("continuity %v serial, %v on four workers", a, b)
	}
}

// TestScaleCohortByteIdentity: a cohort of k nodes priced as a node of an
// N-node system is a k-node session forced to FanoutFor(N) and N's
// forwarding TTL; its measured report must be byte-identical at any worker
// count. The second row is Fig 9's measured setting (60 kbps, 128-bit hash,
// 12 + 6 rounds, 64 nodes) at N=1296, skipped under -short.
func TestScaleCohortByteIdentity(t *testing.T) {
	small := model.FanoutFor(256)
	rows := []struct {
		n, cohort      int
		cfg            SessionConfig
		warmup, rounds int
		long           bool
	}{
		{256, 16, SessionConfig{Nodes: 16, Fanout: small, Monitors: small, TTL: model.ForwardingTTL(256, small),
			StreamKbps: 2, UpdateBytes: 64, ModulusBits: 128, Seed: 7}, 4, 4, false},
		{1296, 64, forcedConfig(64, model.FanoutFor(1296), 1296, 0), 12, 6, true},
	}
	for _, r := range rows {
		t.Run(fmt.Sprintf("N=%d/cohort=%d", r.n, r.cohort), func(t *testing.T) {
			if r.long && testing.Short() {
				t.Skip("a 64-node session at 60 kbps")
			}
			sameOnFourWorkers(t, r.cfg, r.warmup, r.rounds)
		})
	}
}

// TestForcedFanoutPricesLargeN tests the premise of Fig 9's forced-fanout
// rows: a node's cost depends on N only through f, f_m and the forwarding
// TTL, so a 64-node session forced to the fanout and TTL of a larger system
// prices one of its nodes. Each row holds a 64-node session against a
// 432-node one at the same f and TTL: f = 3 at TTL 7 (N=432's own), and f =
// 4 at TTL 8 (N=10^4's; FanoutFor reaches 4 only at N=2000, too large a
// session for this test, so the reference is itself forced).
//
// Measured at seeds 3 and 1, 64 nodes against 432: the mean within 0.5 %
// (-0.24/+0.34 % at f = 3, -0.45/+0.11 % at f = 4); Ack, AckCopy,
// Attestation, HashShare, KeyRequest and NodeDigest identical; KeyResponse
// +12.8 to +13.0 % at f = 3 and +9.0 to +9.1 % at f = 4; Serve +1.7 to
// +4.6 %; AckForward -1.3 to -1.5 %; AttForward within 0.3 %.
//
// N still enters through the saturation depth, ⌈log_{f+1} N⌉: 3 rounds at
// 64 nodes against 5 (f = 3) and 4 (f = 4) at 432. Updates reach a small
// session's nodes earlier in their lifetime, so its buffermaps are fuller.
// The analytic model, given nothing but the two N, predicts KeyResponse
// +12.2 % at f = 3 and +8.6 % at f = 4, within a point of the measured
// gap, which each row asserts. AckForward's gap is the model's self-relay
// term, -1.33 % at both f (DESIGN.md, "Memory flyweight & forced-fanout
// scaling"). The bounds stay as they are until the gaps disappear.
//
// The workers row runs the f = 5 forced session (N=10^5's TTL 9) serially
// and on four workers: per-node kbps and continuity must be byte-identical.
func TestForcedFanoutPricesLargeN(t *testing.T) {
	t.Run("workers", func(t *testing.T) {
		sameOnFourWorkers(t, forcedConfig(64, 5, 100000, 0), 12, 6)
	})

	fixedSize := map[string]bool{"Ack": true, "AckCopy": true, "Attestation": true,
		"HashShare": true, "KeyRequest": true, "NodeDigest": true}
	for _, row := range []struct{ f, n int }{{3, 432}, {4, 10000}} {
		t.Run(fmt.Sprintf("f=%d/N=%d", row.f, row.n), func(t *testing.T) {
			if testing.Short() {
				t.Skip("a 432-node session")
			}
			small, s64 := forcedSession(t, 64, row.f, row.n, 0)
			large, s432 := forcedSession(t, 432, row.f, row.n, -1)
			gap := func(a, b float64) float64 { return a/b - 1 }

			if g := gap(s64.BandwidthSample().Mean(), s432.BandwidthSample().Mean()); math.Abs(g) > 0.02 {
				t.Errorf("mean kbps: 64 nodes %+.2f%% off 432", 100*g)
			}
			for k := wire.KindKeyRequest; k <= wire.KindAckExhibit; k++ {
				kind := wire.KindName(k)
				if small[kind] == 0 && large[kind] == 0 {
					continue
				}
				bound := 0.10
				switch {
				case fixedSize[kind]:
					bound = 0.005
				case kind == "KeyResponse":
					bound = 0.20
				}
				g := gap(small[kind], large[kind])
				t.Logf("%-12s %8.1f B/node/round at 64 nodes, %8.1f at 432 (%+.2f%%)", kind, small[kind], large[kind], 100*g)
				if math.Abs(g) > bound {
					t.Errorf("%s: 64 nodes %+.2f%% off 432, bound %.1f%%", kind, 100*g, 100*bound)
				}
			}

			modelled := func(n int) float64 {
				cfg := s64.Config()
				return analytic.PAGKindBytes(analytic.Params{
					PayloadKbps: cfg.StreamKbps * 1000 / 8 / cfg.UpdateBytes * cfg.UpdateBytes * 8 / 1000,
					N:           n, Fanout: row.f, Monitors: row.f, TTLRounds: int(cfg.TTL),
					Wire: analytic.WireFor(cfg.ModulusBits),
				})["KeyResponse"]
			}
			got, want := gap(small["KeyResponse"], large["KeyResponse"]), gap(modelled(64), modelled(432))
			if math.Abs(got-want) > 0.01 {
				t.Errorf("KeyResponse: 64 nodes %+.2f%% off 432, the model's saturation depth predicts %+.2f%%",
					100*got, 100*want)
			}
		})
	}
}
