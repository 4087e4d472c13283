package pag

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/transport"
)

// These tests are the bandwidth plane's acceptance gate: the queued link
// model under real pressure (caps at and below the protocol's demand)
// must stay byte-identical across engine widths on MemNet, show the
// Table II continuity cliff monotonically, and carry the same queue
// accounting and per-epoch bandwidth onto real sockets. Over sockets the
// one residual is timing: deliveries inside a phase arrive in wall-clock
// order, so a capped sender's queue may see its sends in another order.

// cliffConfig is a session sized so the capacity-cliff caps (multiples of
// the 60 kbps stream) actually bite: PAG's per-node demand at these
// settings is several times the stream rate, so the sweep crosses the
// overhead ratio mid-run.
func cliffConfig(workers int) SessionConfig {
	// Default 938-byte updates: smaller chunks multiply the per-update
	// overhead and push demand past even the loosest cap of the sweep.
	return SessionConfig{
		Nodes: 16, StreamKbps: 60, ModulusBits: 128, Seed: 7,
		Workers: workers,
	}
}

// runCliff runs the canned capacity-cliff sweep under PAG on the given
// engine width.
func runCliff(t *testing.T, workers int) ScenarioReport {
	t.Helper()
	sc, err := scenario.ByName("capacity-cliff", 16, 60)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 7
	r, err := RunScenarioReport(cliffConfig(workers), sc, []Protocol{ProtocolPAG}, 1)
	if err != nil {
		t.Fatalf("capacity-cliff at workers=%d: %v", workers, err)
	}
	return r
}

// TestCapacityCliffDeterministicAcrossWorkers: a run with live queue
// pressure — deferrals, released backlog merges and deadline expiry every round
// — produces byte-identical reports at workers 0, 1, 4 and 16. This is the property test behind the
// link model's merge-point design: queue release happens in canonical
// order at the round top, so worker scheduling cannot reach it.
func TestCapacityCliffDeterministicAcrossWorkers(t *testing.T) {
	serial := runCliff(t, 0)
	run := serial.Protocols[0]
	if run.MessagesDeferred == 0 {
		t.Fatal("cliff sweep exercised no queue pressure — the determinism test would be vacuous")
	}
	if run.MessagesExpired == 0 {
		t.Fatal("cliff sweep expired nothing — the deadline path went untested")
	}
	want := strippedJSON(serial)
	workerCounts := []int{1, 4, 16}
	if testing.Short() {
		workerCounts = []int{4}
	}
	for _, w := range workerCounts {
		parallel := runCliff(t, w)
		if got := strippedJSON(parallel); !bytes.Equal(want, got) {
			t.Errorf("capped report at workers=%d differs from the workers=0 one\nwant: %.400s\ngot:  %.400s",
				w, want, got)
		}
	}
}

// TestCapacityCliffContinuityDegradesMonotonically: the Table II claim,
// measured. As the population-wide cap steps down toward the stream rate,
// per-epoch continuity must fall monotonically (small tolerance for
// dissemination noise), collapse at the bottom of the sweep, and the
// report must attribute the failure to queue pressure — deferrals on
// every capped level, expiry once the backlog out-ages the playout
// window — not to loss.
func TestCapacityCliffContinuityDegradesMonotonically(t *testing.T) {
	report := runCliff(t, 0)
	run := report.Protocols[0]
	// Epoch 0 is the uncapped warmup; every later epoch is one cap level.
	if len(run.Epochs) != 6 {
		t.Fatalf("%d epochs, want 6 (warmup + 5 cap levels): %+v", len(run.Epochs), run.Epochs)
	}
	levels := run.Epochs[1:]
	const tolerance = 0.03
	for i := 1; i < len(levels); i++ {
		if levels[i].MeanContinuity > levels[i-1].MeanContinuity+tolerance {
			t.Errorf("continuity rose as the cap tightened: level %d %.3f → level %d %.3f",
				i-1, levels[i-1].MeanContinuity, i, levels[i].MeanContinuity)
		}
	}
	first, last := levels[0], levels[len(levels)-1]
	if first.MeanContinuity < 0.9 {
		t.Errorf("continuity %.3f already degraded at the loosest cap (8x stream)", first.MeanContinuity)
	}
	if last.MeanContinuity > 0.5 {
		t.Errorf("no cliff: continuity %.3f at a cap equal to the stream rate", last.MeanContinuity)
	}
	// Queue pressure, not loss, explains the cliff: the tightest level
	// defers and expires, and no scripted loss exists to blame.
	if last.Deferred == 0 {
		t.Error("tightest cap level recorded no deferrals")
	}
	if run.MessagesExpired == 0 {
		t.Error("sweep recorded no queue expiry")
	}
	if run.Epochs[0].Deferred != 0 || run.Epochs[0].QueueDepth != 0 {
		t.Errorf("uncapped warmup shows queue activity: %+v", run.Epochs[0])
	}
	if run.MessagesDropped < run.MessagesExpired {
		t.Errorf("expired (%d) not included in dropped (%d)", run.MessagesExpired, run.MessagesDropped)
	}
}

// TestTCPCapacityCliffQueueParity: the same pressured sweep over loopback
// sockets. The deferral counters must land in the same regime as MemNet's,
// every epoch's bandwidth within 2 % of MemNet's — the released backlog is
// charged after the round-top hooks that mark epochs on both transports —
// and the cliff must appear on the wire too.
func TestTCPCapacityCliffQueueParity(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback cliff sweep is seconds-long; covered by the full suite")
	}
	const nodes = 10
	sc := scenario.CapacityCliff(30, 4, 4)
	sc.Seed = 7

	base := SessionConfig{
		Nodes: nodes, StreamKbps: 30, ModulusBits: 128, Seed: 7,
	}
	memReport, err := RunScenarioReport(base, sc, []Protocol{ProtocolPAG}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tcpBase := base
	tcpBase.NewNetwork = func() transport.FaultyNetwork {
		tn := transport.NewTCPNet(nil)
		tn.SetDynamic("127.0.0.1")
		tn.SetStepped(5 * time.Second)
		return tn
	}
	tcpReport, err := RunScenarioReport(tcpBase, sc, []Protocol{ProtocolPAG}, 1)
	if err != nil {
		t.Fatal(err)
	}

	mem, tcp := memReport.Protocols[0], tcpReport.Protocols[0]
	if mem.MessagesDeferred == 0 || tcp.MessagesDeferred == 0 {
		t.Fatalf("sweep exercised no queue pressure: mem=%d tcp=%d deferred",
			mem.MessagesDeferred, tcp.MessagesDeferred)
	}
	// Same regime: a capped queue sees its sender's sends in delivery
	// order, which over sockets is wall-clock order, so exact equality is
	// not the contract — staying within a third of each other is.
	relDiff := func(a, b uint64) float64 {
		hi, lo := float64(a), float64(b)
		if lo > hi {
			hi, lo = lo, hi
		}
		if hi == 0 {
			return 0
		}
		return (hi - lo) / hi
	}
	if d := relDiff(mem.MessagesDeferred, tcp.MessagesDeferred); d > 0.34 {
		t.Errorf("deferral regimes diverge: mem=%d tcp=%d (rel %.2f)",
			mem.MessagesDeferred, tcp.MessagesDeferred, d)
	}
	if len(tcp.Epochs) != len(mem.Epochs) {
		t.Fatalf("%d epochs over tcp, %d on mem", len(tcp.Epochs), len(mem.Epochs))
	}
	for i, e := range tcp.Epochs {
		if m := mem.Epochs[i].MeanBandwidthKbps; math.Abs(e.MeanBandwidthKbps-m) > 0.02*m {
			t.Errorf("epoch %d: %.2f kbps over tcp, %.2f on mem", i, e.MeanBandwidthKbps, m)
		}
	}
	// The cliff shows on the wire: the tightest level has collapsed
	// continuity on both transports.
	memLast := mem.Epochs[len(mem.Epochs)-1]
	tcpLast := tcp.Epochs[len(tcp.Epochs)-1]
	if memLast.MeanContinuity > 0.5 || tcpLast.MeanContinuity > 0.5 {
		t.Errorf("no cliff at stream-rate cap: mem=%.3f tcp=%.3f",
			memLast.MeanContinuity, tcpLast.MeanContinuity)
	}
}
