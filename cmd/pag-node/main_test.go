package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestTCPClusterPaced runs five honest nodes the way five processes would —
// each its own run call with its own TCPNet, sharing only a loopback roster
// and the seed — through the paced round loop. None may convict anyone, and
// every node plays out something: chunks reach their playout deadline (the
// session's TTL, 4 rounds at five nodes) well before round 12.
func TestTCPClusterPaced(t *testing.T) {
	outs := runCluster(t, 5, "-period", "400ms", "-rounds", "12", "-stream", "20")
	delivered := regexp.MustCompile(`done: delivered (\d+) updates`)
	for i, out := range outs {
		m := delivered.FindStringSubmatch(out)
		if m == nil {
			t.Errorf("node %d printed no delivery summary:\n%s", i+1, out)
		} else if n, _ := strconv.Atoi(m[1]); n < 1 {
			t.Errorf("node %d delivered nothing:\n%s", i+1, out)
		}
	}
}

// TestJoinBeyondRoster: on a 6-line roster with five founders, a script
// that joins twice admits the standby node 6 and refuses the second
// joiner, which has no roster address — every process logs the refusal,
// and nobody is left convicting a member no process hosts.
func TestJoinBeyondRoster(t *testing.T) {
	script := filepath.Join(t.TempDir(), "joins.json")
	if err := os.WriteFile(script, []byte(`{"name":"two-joins","rounds":6,"events":[`+
		`{"round":3,"action":"join"},{"round":4,"action":"join"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	outs := runCluster(t, 6, "-members", "5", "-period", "400ms", "-rounds", "6", "-stream", "20", "-scenario", script)
	for i, out := range outs {
		if !strings.Contains(out, "round r4: join failed: pag: node n7 has no address on the tcp network") ||
			!strings.Contains(out, "2 events (1 failed)") {
			t.Errorf("node %d did not log the refused join:\n%s", i+1, out)
		}
	}
	if !strings.Contains(outs[5], "joined the deployment at round r3") {
		t.Errorf("node 6 did not join:\n%s", outs[5])
	}
}

// runCluster runs one honest node per line of a fresh loopback roster, the
// way that many processes would — each its own run call with its own
// TCPNet — and returns their outputs. Every node must exit 0 and print no
// verdict.
func runCluster(t *testing.T, nodes int, args ...string) []string {
	t.Helper()
	var roster strings.Builder
	for id := 1; id <= nodes; id++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&roster, "%d %s\n", id, ln.Addr())
		_ = ln.Close()
	}
	path := filepath.Join(t.TempDir(), "roster.txt")
	if err := os.WriteFile(path, []byte(roster.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	codes := make([]int, nodes)
	outs := make([]bytes.Buffer, nodes)
	errs := make([]bytes.Buffer, nodes)
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = run(append([]string{"-id", strconv.Itoa(i + 1), "-roster", path}, args...), &outs[i], &errs[i])
		}()
	}
	wg.Wait()

	res := make([]string, nodes)
	for i := range codes {
		res[i] = outs[i].String()
		if codes[i] != 0 {
			t.Errorf("node %d exited %d: %s", i+1, codes[i], errs[i].String())
		}
		if strings.Contains(res[i], "VERDICT") {
			t.Errorf("node %d convicted a correct node:\n%s", i+1, res[i])
		}
	}
	return res
}

// TestUsage drives the command's argument checks, and its refusals of what
// a deployment cannot honour. Every case returns before the node opens a
// socket, so the roster's addresses are never dialed or listened on.
func TestUsage(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	roster := write("roster.txt", "1 127.0.0.1:1\n2 127.0.0.1:2\n3 127.0.0.1:3\n")
	roster5 := write("roster5.txt", "1 127.0.0.1:1\n2 127.0.0.1:2\n3 127.0.0.1:3\n4 127.0.0.1:4\n5 127.0.0.1:5\n")
	gapped := write("gapped.txt", "1 127.0.0.1:1\n2 127.0.0.1:2\n4 127.0.0.1:4\n")
	evict := write("evict.json", `{"name":"evict","rounds":8,"eviction":{"conviction_threshold":3,"quarantine_rounds":4}}`)
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"help", []string{"-h"}, 0, "-roster"},
		{"missing id", []string{"-roster", roster}, 2, "-id and -roster are required"},
		{"missing roster", []string{"-id", "1"}, 2, "-id and -roster are required"},
		{"no net flag", []string{"-id", "1", "-roster", roster, "-net", "tcp"}, 2, "flag provided but not defined: -net"},
		{"members beyond roster", []string{"-id", "1", "-roster", roster, "-members", "4"}, 2, "exceeds the 3-node roster"},
		{"id not in roster", []string{"-id", "9", "-roster", roster}, 1, "id 9 not in roster"},
		{"roster not numbered 1 to N", []string{"-id", "1", "-roster", gapped}, 1, "roster ids must be 1 to 3: n3 is missing"},
		{"eviction block", []string{"-id", "1", "-roster", roster5, "-scenario", evict}, 2, "has an eviction block"},
		{"founders below fanout+2", []string{"-id", "1", "-roster", roster5, "-members", "4", "-scenario", "testdata/join.json"}, 1, "4 nodes too few for fanout 3"},
		{"roster below fanout+2", []string{"-id", "1", "-roster", roster}, 1, "3 nodes too few for fanout 3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d: %s", code, c.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), c.stderr)
			}
			if stdout.Len() != 0 {
				t.Errorf("usage path wrote to stdout: %q", stdout.String())
			}
		})
	}
}
