package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The golden reports were recorded by the commit before the AcTinG log
// truncation (PR 25's parent) and pin the whole report — every epoch
// field, conviction, eviction and the digest — for the six canned
// scenarios under AcTinG, plus one under PAG. A change that means to move
// a report re-records them in the same commit and says why in CHANGES.md:
//
//	go test ./cmd/pag-scenario -run TestGoldenReports -record-golden
var recordGolden = flag.Bool("record-golden", false, "rewrite testdata/*.json from this run")

var goldenRuns = []struct {
	protocol, scenario string
	// firstContact marks the runs whose churn or rejoins seat a monitor
	// after its node's log was truncated. That monitor's first audit reply
	// carries the retained suffix where the recording's carried the whole
	// history, so each bandwidth line may read below the recording's (and
	// the digest over them differ); every other line is byte-identical.
	firstContact bool
}{
	{"acting", "flash-crowd", true},
	{"acting", "steady-churn", true},
	{"acting", "transient-partition", false},
	{"acting", "delayed-coalition", false},
	{"acting", "rejoin-attack", true},
	{"acting", "capacity-cliff", false},
	{"pag", "delayed-coalition", false},
}

func TestGoldenReports(t *testing.T) {
	for _, g := range goldenRuns {
		name := g.protocol + "-" + g.scenario
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-scenario", g.scenario, "-protocol", g.protocol,
				"-nodes", "24", "-seed", "7", "-workers", "1"}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			path := filepath.Join("testdata", name+".json")
			if *recordGolden {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(stdout.Bytes(), want) {
				return
			}
			if !g.firstContact {
				t.Fatalf("report differs from %s:\n%s", path, stdout.String())
			}
			compareFirstContact(t, path, stdout.String(), string(want))
		})
	}
}

// compareFirstContact allows a first-contact run exactly the differences
// its shorter audit replies explain: lower bandwidth lines and the digest.
func compareFirstContact(t *testing.T, path, got, want string) {
	t.Helper()
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(gl) != len(wl) {
		t.Fatalf("report has %d lines, %s has %d:\n%s", len(gl), path, len(wl), got)
	}
	for i := range gl {
		g, w := strings.TrimSpace(gl[i]), strings.TrimSpace(wl[i])
		switch {
		case g == w, strings.HasPrefix(g, `"report_digest":`) && strings.HasPrefix(w, `"report_digest":`):
		case strings.HasPrefix(g, `"mean_bandwidth_kbps":`) && strings.HasPrefix(w, `"mean_bandwidth_kbps":`):
			if kbps(t, g) > kbps(t, w) {
				t.Errorf("%s line %d: %s, above the recording's %s", path, i+1, g, w)
			}
		default:
			t.Errorf("%s line %d: got %s, want %s", path, i+1, g, w)
		}
	}
}

func kbps(t *testing.T, line string) float64 {
	t.Helper()
	_, v, _ := strings.Cut(strings.TrimSuffix(line, ","), ": ")
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		t.Fatalf("bandwidth line %q: %v", line, err)
	}
	return f
}
