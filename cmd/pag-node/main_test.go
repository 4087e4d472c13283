package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
