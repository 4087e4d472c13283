package acting

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/membership"
	"repro/internal/model"
)

// testdata/audit_verdicts.txt was recorded by the commit before the log
// truncation (PR 25's parent, with this file and newClusterWith added) and
// lists every judicial fact — (round, kind, accused, accuser), the key the
// registry deduplicates on — that each scripted deviation draws over 24
// rounds, under static monitors and under monitors re-drawn every 4 rounds.
// Under rotation most audits are first audits by newly seated monitors,
// which now start from the audited node's log base instead of its genesis:
// the facts must not move. Re-record (from the parent, not the tree under
// test, unless a verdict is changed on purpose) with
//
//	go test ./internal/acting -run TestAuditVerdictsMatchParent -record-audit-verdicts
var recordAuditVerdicts = flag.Bool("record-audit-verdicts", false, "rewrite testdata/audit_verdicts.txt from this run")

func TestAuditVerdictsMatchParent(t *testing.T) {
	const rounds = 24
	cases := []struct {
		name string
		node model.NodeID
		b    Behavior
		from model.Round
	}{
		{"honest", 0, Behavior{}, 1},
		{"free-ride", 5, Behavior{FreeRide: true}, 1},
		{"skip-propose", 8, Behavior{SkipPropose: true}, 1},
		{"tamper-log", 4, Behavior{TamperLog: true}, 1},
		{"refuse-audit", 6, Behavior{RefuseAudit: true}, 1},
		// Turns to tampering after its log was first truncated: under
		// rotation its next audits are by monitors seated since.
		{"late-tamper", 4, Behavior{TamperLog: true}, 16},
	}
	var lines []string
	for _, rotation := range []int{0, 4} {
		for _, tc := range cases {
			mcfg := membership.Config{Seed: 7, Fanout: 3, Monitors: 3, MonitorRotationRounds: rotation}
			c := newClusterWith(t, mcfg, 16, 0, nil, nil)
			c.engine.Run(int(tc.from) - 1)
			if tc.node != model.NoNode {
				c.nodes[tc.node].SetBehavior(tc.b)
			}
			c.engine.Run(rounds - int(tc.from) + 1)
			facts := map[string]bool{}
			for _, v := range c.verdicts {
				facts[fmt.Sprintf("rotation=%d %s r%d %v accused=%v accuser=%v",
					rotation, tc.name, v.Round, v.Kind, v.Accused, v.Reporter)] = true
			}
			if len(facts) == 0 {
				facts[fmt.Sprintf("rotation=%d %s none", rotation, tc.name)] = true
			}
			for f := range facts {
				lines = append(lines, f)
			}
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	const path = "testdata/audit_verdicts.txt"
	if *recordAuditVerdicts {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("judicial facts differ from %s:\n%s", path, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only one side has.
func lineDiff(want, got string) string {
	w, g := map[string]bool{}, map[string]bool{}
	for _, l := range strings.Split(want, "\n") {
		w[l] = true
	}
	for _, l := range strings.Split(got, "\n") {
		g[l] = true
	}
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
