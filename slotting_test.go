package pag

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// The fixture below is this file's own rendering of a session as the last
// commit without exchange slots ran it (c801d63: every KeyRequest at the
// round top, a buffermap of the last 4 reception rounds). It cannot be
// re-recorded from this tree, which is the point; to rebuild it, copy this
// file into a checkout of that commit and run
//
//	go test -run TestSlottingChangesOnlyTheSplit -record-slotting-fixture .
var recordSlottingFixture = flag.Bool("record-slotting-fixture", false,
	"rewrite testdata/slotting_parent.txt (only meaningful on the commit the fixture is recorded from)")

const slottingFixtureFile = "testdata/slotting_parent.txt"

// slottingRun renders everything about a seeded 16-node session with one
// free-rider that the exchange slots and the live-set buffermap must leave
// alone, one fact per line, and the per-kind byte totals after them.
func slottingRun(t *testing.T) []string {
	t.Helper()
	s, err := NewSession(SessionConfig{
		Nodes: 16, StreamKbps: 16, UpdateBytes: 128, ModulusBits: 128, Seed: 7,
		PAGBehaviors: map[NodeID]core.Behavior{9: {SkipServeEvery: 2}},
		Obs:          obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(16)
	var lines []string
	stats := s.PAGNodeStats()
	for id := NodeID(1); id <= 16; id++ {
		st, tr := stats[id], s.net.TrafficOf(id)
		lines = append(lines, fmt.Sprintf("node %d received %d duplicates %d delivered %d msgs_in %d msgs_out %d",
			id, st.UpdatesReceived, st.DuplicateReceptions, st.UpdatesDelivered, tr.MsgsIn, tr.MsgsOut))
	}
	// A verdict is its judicial key. The detail of the free-rider's is
	// whichever skipped successor its monitor looked at first, and that
	// order is the slots'.
	for _, v := range s.Verdicts() {
		lines = append(lines, fmt.Sprintf("verdict %v %v against %v by %v", v.Round, v.Kind, v.Accused, v.Reporter))
	}
	bytes := s.Metrics().ByLabel("pag_core_bytes_total", "kind")
	for k := wire.KindKeyRequest; k <= wire.KindAckExhibit; k++ {
		lines = append(lines, fmt.Sprintf("bytes %s %.0f", wire.KindName(k), bytes[wire.KindName(k)]))
	}
	return lines
}

// TestSlottingChangesOnlyTheSplit: opening a successor's exchanges one slot
// after the other and mapping its whole live set changes which served items
// travel as payloads and which as references, and how many tags a
// KeyResponse carries — nothing else. Against the same session as the
// parent commit ran it: every node first-receives, re-receives and plays
// the same updates and handles the same number of messages, the monitors
// reach the same verdicts, and every wire kind but Serve and KeyResponse
// weighs the same to the byte.
func TestSlottingChangesOnlyTheSplit(t *testing.T) {
	got := slottingRun(t)
	if *recordSlottingFixture {
		if err := os.WriteFile(slottingFixtureFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(slottingFixtureFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d facts, the parent recorded %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	verdicts := 0
	for i := range want {
		switch {
		case strings.HasPrefix(want[i], "bytes KeyResponse "):
			continue // more tags, fewer expired ones: free to move
		case strings.HasPrefix(want[i], "bytes Serve "):
			var now, parent float64
			fmt.Sscanf(got[i], "bytes Serve %f", &now)
			fmt.Sscanf(want[i], "bytes Serve %f", &parent)
			if now >= parent {
				t.Errorf("Serve: %.0f bytes, the parent's %.0f: no payload was saved", now, parent)
			}
			continue
		case strings.HasPrefix(want[i], "verdict "):
			verdicts++
		}
		if got[i] != want[i] {
			t.Errorf("fact %d: %q, the parent recorded %q", i, got[i], want[i])
		}
	}
	if verdicts == 0 {
		t.Fatal("the fixture holds no verdict: the free-rider was not exercised")
	}
}
