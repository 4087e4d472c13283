package transport

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

// The fixture below is the byte stream a stepped TCPNet wrote for a fixed
// script at commit 3ff43f8. The connection writer must still put the same
// bytes on the wire, flush for flush. To rebuild it, copy this
// file into a checkout of that commit and run
//
//	go test ./internal/transport -run TestTCPStreamMatchesParent -record-stream-fixture
var recordStreamFixture = flag.Bool("record-stream-fixture", false,
	"rewrite testdata/stream_parent.txt (only meaningful on the commit the fixture is recorded from)")

const streamFixtureFile = "testdata/stream_parent.txt"

// tapID is the node a wire tap stands in for.
const tapID model.NodeID = 9

// tapNode puts a plain net.Listener into a stepped TCPNet's address book
// as node tapID, registers node 1 as the sender and hands every read the
// listener's one accepted connection returns to sink. The buffer sink is
// given is reused by the next read.
func tapNode(t *testing.T, sink func([]byte)) (*TCPNet, Endpoint) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64<<10)
		for {
			n, err := c.Read(buf)
			sink(buf[:n])
			if err != nil {
				return
			}
		}
	}()
	tn := NewTCPNet(map[model.NodeID]string{tapID: ln.Addr().String()})
	tn.SetDynamic("127.0.0.1")
	tn.SetStepped(5 * time.Second)
	t.Cleanup(func() { _ = tn.Close() })
	ep, err := tn.Register(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	return tn, ep
}

// streamRun plays the script — one lone frame, a 40-frame phase (one
// jumbo), six 64 KB frames (the 256 KB bound flushes mid-phase) — and
// renders every write it caused as one line: the step, the write's length
// and the sha256 of the bytes the listener received for it.
func streamRun(t *testing.T) []string {
	var mu sync.Mutex
	var stream []byte
	tn, ep := tapNode(t, func(b []byte) {
		mu.Lock()
		stream = append(stream, b...)
		mu.Unlock()
	})
	var lines []string
	off := 0
	step := func(name string, do func()) {
		before := tn.IOStats()
		do()
		d := ioDelta(before, tn.IOStats())
		if d.Writes == 0 {
			return
		}
		if d.Writes > 1 {
			t.Fatalf("%s: %d writes in one step", name, d.Writes)
		}
		n := int(d.BytesOut)
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			mu.Lock()
			have := len(stream)
			mu.Unlock()
			if have >= off+n {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: the listener got %d of %d bytes", name, have-off, n)
			}
		}
		mu.Lock()
		flushed := stream[off : off+n]
		mu.Unlock()
		off += n
		lines = append(lines, fmt.Sprintf("%s %d %x", name, n, sha256.Sum256(flushed)))
	}
	send := func(payload []byte) func() {
		return func() {
			if err := ep.Send(tapID, 1, payload); err != nil {
				t.Fatal(err)
			}
		}
	}

	step("lone", send([]byte("one frame on its own")))
	step("lone", tn.FlushAll)
	for k := 0; k < 40; k++ {
		payload := bytes.Repeat([]byte{byte(k)}, 1+k*7%97)
		step("phase", send(append(payload, fmt.Sprintf("#%d", k)...)))
	}
	step("phase", tn.FlushAll)
	for k := 0; k < 6; k++ {
		step("overflow", send(bytes.Repeat([]byte{byte(0xA0 + k)}, 64<<10)))
	}
	step("overflow", tn.FlushAll)
	return lines
}

// TestTCPStreamMatchesParent: the connection writer's bytes on the wire —
// frame headers, jumbo wrapping, where the 256 KB bound splits a phase —
// are those of the recorded parent, write for write.
func TestTCPStreamMatchesParent(t *testing.T) {
	got := streamRun(t)
	if *recordStreamFixture {
		if err := os.WriteFile(streamFixtureFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(streamFixtureFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("wire stream differs from the parent's:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
