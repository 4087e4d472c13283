package pag

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/obs"
	"repro/internal/wire"
)

// The paper's headline is a byte count, so bytes move on purpose or not at
// all: testdata/wire_budget.txt records what a PAG node receives per round
// of every wire kind (pag_core_bytes_total) on one small seeded session,
// and a change that makes any kind heavier fails here until the budget is
// re-recorded in the same commit:
//
//	go test -run TestWireBudget -record-wire-budget .
var recordWireBudget = flag.Bool("record-wire-budget", false, "rewrite testdata/wire_budget.txt from this run")

const wireBudgetFile = "testdata/wire_budget.txt"

// kindBytesPerNodeRound runs a PAG session through warmup rounds and
// returns what its nodes received over the next measure rounds, in bytes
// per node per round by wire kind, and the session, measured over the same
// window and closed when the test ends.
func kindBytesPerNodeRound(t *testing.T, cfg SessionConfig, warmup, measure int) (map[string]float64, *Session) {
	t.Helper()
	cfg.Obs = obs.NewRegistry()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.Run(warmup)
	s.StartMeasuring()
	before := s.Metrics().ByLabel("pag_core_bytes_total", "kind")
	s.Run(measure)
	out := s.Metrics().ByLabel("pag_core_bytes_total", "kind")
	for kind, b := range out {
		out[kind] = (b - before[kind]) / float64(cfg.Nodes*measure)
	}
	return out, s
}

func TestWireBudget(t *testing.T) {
	got, _ := kindBytesPerNodeRound(t, SessionConfig{
		Nodes: 16, StreamKbps: 60, ModulusBits: 256, Seed: 22,
	}, 12, 8)
	var b strings.Builder
	b.WriteString("# PAG bytes received per node per round by wire kind: 16 nodes, 60 kbps, 256-bit, seed 22, rounds 13-20.\n")
	b.WriteString("# Re-record: go test -run TestWireBudget -record-wire-budget .\n")
	for k := wire.KindKeyRequest; k <= wire.KindObligationHandover; k++ {
		fmt.Fprintf(&b, "%s %.1f\n", wire.KindName(k), got[wire.KindName(k)])
	}
	if *recordWireBudget {
		if err := os.WriteFile(wireBudgetFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(wireBudgetFile)
	if err != nil {
		t.Fatal(err)
	}
	budget := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var kind string
		var bytes float64
		if _, err := fmt.Sscanf(line, "%s %f", &kind, &bytes); err != nil {
			t.Fatalf("%s: line %q: %v", wireBudgetFile, line, err)
		}
		budget[kind] = bytes
	}
	if len(budget) != len(got) {
		t.Fatalf("%s has %d kinds, the session reports %d", wireBudgetFile, len(budget), len(got))
	}
	for k := wire.KindKeyRequest; k <= wire.KindObligationHandover; k++ {
		kind := wire.KindName(k)
		if want, ok := budget[kind]; !ok {
			t.Errorf("%s: no budget line", kind)
		} else if got[kind] > want*1.01 {
			t.Errorf("%s: %.1f B/node/round, budget %.1f (+%.1f%%): re-record the budget if the growth is meant",
				kind, got[kind], want, 100*(got[kind]/want-1))
		}
	}
}

// TestAnalyticMatchesCounters holds the model to what the nodes count at
// paper sizes, kind by kind: every kind that carries at least 1 % of the
// bytes, and their sum, within 3 %. The model is given the rate the source
// emits — whole updates per round — and the session's TTL.
func TestAnalyticMatchesCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("a 48-node session at 512 bits")
	}
	cfg := SessionConfig{Nodes: 48, StreamKbps: 300, ModulusBits: 512, Seed: 22, Workers: -1}.withDefaults()
	got, _ := kindBytesPerNodeRound(t, cfg, 12, 8)
	want := analytic.PAGKindBytes(analytic.Params{
		PayloadKbps: cfg.StreamKbps * 1000 / 8 / cfg.UpdateBytes * cfg.UpdateBytes * 8 / 1000,
		UpdateBytes: cfg.UpdateBytes,
		N:           cfg.Nodes,
		TTLRounds:   int(cfg.TTL),
	})
	var gotAll, wantAll float64
	for _, b := range got {
		gotAll += b
	}
	for k := wire.KindKeyRequest; k <= wire.KindObligationHandover; k++ {
		kind := wire.KindName(k)
		wantAll += want[kind]
		if got[kind] < 0.01*gotAll {
			if want[kind] > 0.02*gotAll {
				t.Errorf("%s: %.0f B/node/round counted, %.0f modelled", kind, got[kind], want[kind])
			}
			continue
		}
		dev := 100 * (want[kind]/got[kind] - 1)
		t.Logf("%-12s %8.0f B/node/round counted, %8.0f modelled (%+.1f%%)", kind, got[kind], want[kind], dev)
		if math.Abs(dev) > 3 {
			t.Errorf("%s: model off by %+.1f%%", kind, dev)
		}
	}
	dev := 100 * (wantAll/gotAll - 1)
	t.Logf("%-12s %8.0f B/node/round counted, %8.0f modelled (%+.1f%%)", "all kinds", gotAll, wantAll, dev)
	if math.Abs(dev) > 3 {
		t.Errorf("all kinds: model off by %+.1f%%", dev)
	}
}
