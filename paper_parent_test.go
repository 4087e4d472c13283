package pag

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// The fixture below is this file's rendering of a session at the paper's
// sizes (§VII-A: 512-bit modulus and primes, 300 kbps of 938-byte chunks)
// as commit 1207557 ran it, when every buffermap tag was still the low 64
// bits of a lift. Tags are keyed hashes now (hhash.Hasher.Tags), and the
// same 512-bit buffermaps go through them, so this is the check that the
// tag construction moved no counter and no verdict. To rebuild it, copy
// this file into a checkout of that commit and run
//
//	go test -run TestPaperParentFixture -record-paper-fixture .
var recordPaperFixture = flag.Bool("record-paper-fixture", false,
	"rewrite testdata/paper_parent.txt (only meaningful on the commit the fixture is recorded from)")

const paperFixtureFile = "testdata/paper_parent.txt"

// paperRun renders a seeded 12-node session at paper sizes with a
// free-rider and a node that trims its forward set: one line per node with
// every core.Stats counter and its traffic, then every verdict.
func paperRun(t *testing.T) []string {
	t.Helper()
	s, err := NewSession(SessionConfig{
		Nodes: 12, StreamKbps: 300, ModulusBits: 512, Seed: 17,
		PAGBehaviors: map[NodeID]core.Behavior{
			5: {DropUpdates: 1},
			9: {SkipServeEvery: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(16)
	var lines []string
	stats := s.PAGNodeStats()
	for id := NodeID(1); id <= 12; id++ {
		tr := s.net.TrafficOf(id)
		lines = append(lines, fmt.Sprintf("node %d %+v msgs_in %d msgs_out %d bytes_in %d bytes_out %d",
			id, stats[id], tr.MsgsIn, tr.MsgsOut, tr.BytesIn, tr.BytesOut))
	}
	// A verdict is its judicial key: which skipped successor the
	// free-rider's monitor names in the detail depends on map order.
	for _, v := range s.Verdicts() {
		lines = append(lines, fmt.Sprintf("verdict %v %v against %v by %v", v.Round, v.Kind, v.Accused, v.Reporter))
	}
	return lines
}

// TestPaperParentFixture: at the paper's widths, the session's counters
// (hash-ops included), traffic and verdicts are the parent's, byte for byte.
func TestPaperParentFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("a 512-bit session: ~2.5 s, ~30 s under -race")
	}
	if runtime.GOMAXPROCS(0) < 2 { // the fewest Ps at which a batch splits
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	got := paperRun(t)
	if *recordPaperFixture {
		if err := os.WriteFile(paperFixtureFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(paperFixtureFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d facts, the parent recorded %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	verdicts := 0
	for i := range want {
		if strings.HasPrefix(want[i], "verdict ") {
			verdicts++
		}
		if got[i] != want[i] {
			t.Errorf("fact %d: %q, the parent recorded %q", i, got[i], want[i])
		}
	}
	if verdicts == 0 {
		t.Fatal("the fixture holds no verdict: the deviators were not exercised")
	}
}
