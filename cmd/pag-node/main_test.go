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
// every node plays out something: chunks of rounds 1–2 reach their 10-round
// playout deadline by round 12.
func TestTCPClusterPaced(t *testing.T) {
	const nodes = 5
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
			codes[i] = run([]string{"-id", strconv.Itoa(i + 1), "-roster", path,
				"-period", "400ms", "-rounds", "12", "-stream", "20"}, &outs[i], &errs[i])
		}()
	}
	wg.Wait()

	delivered := regexp.MustCompile(`done: delivered (\d+) updates`)
	for i := range codes {
		out := outs[i].String()
		if codes[i] != 0 {
			t.Errorf("node %d exited %d: %s", i+1, codes[i], errs[i].String())
		}
		if strings.Contains(out, "VERDICT") {
			t.Errorf("node %d convicted a correct node:\n%s", i+1, out)
		}
		m := delivered.FindStringSubmatch(out)
		if m == nil {
			t.Errorf("node %d printed no delivery summary:\n%s", i+1, out)
		} else if n, _ := strconv.Atoi(m[1]); n < 1 {
			t.Errorf("node %d delivered nothing:\n%s", i+1, out)
		}
	}
}

// TestUsage drives the command's argument checks. Every case returns
// before the node opens a socket, so the roster's addresses are never
// dialed or listened on.
func TestUsage(t *testing.T) {
	roster := filepath.Join(t.TempDir(), "roster.txt")
	if err := os.WriteFile(roster, []byte("1 127.0.0.1:1\n2 127.0.0.1:2\n3 127.0.0.1:3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
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
