package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/model"
)

// Tests for the shared listener: every id at one address is served by one
// listener, one accept loop and one read loop per inbound connection.

// inboundConns returns how many connections the listener at key has
// accepted and not yet closed.
func inboundConns(t *testing.T, tn *TCPNet, key string) int {
	t.Helper()
	tn.regMu.Lock()
	lis := tn.listeners[key]
	tn.regMu.Unlock()
	if lis == nil {
		t.Fatalf("no listener at %q", key)
	}
	lis.mu.Lock()
	defer lis.mu.Unlock()
	return len(lis.accepted)
}

// TestTCPSharedListenerOneConnection: 32 dynamic ids on one stepped TCPNet
// share one listener, the process reaches all of them over one loopback
// connection, and a phase of sends to many ids costs at most one write
// per DeliverAll.
func TestTCPSharedListenerOneConnection(t *testing.T) {
	tn := newSteppedTCP(t)
	const nodes, fanout, phases = 32, 5, 4
	got := make([]int, nodes+1)
	eps := make([]Endpoint, nodes+1)
	for i := 1; i <= nodes; i++ {
		ep, err := tn.Register(model.NodeID(i), func(m Message) { got[m.To]++ })
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	if len(tn.listeners) != 1 {
		t.Fatalf("%d dynamic ids opened %d listeners, want 1", nodes, len(tn.listeners))
	}
	for p := 0; p < phases; p++ {
		for i := 1; i <= nodes; i++ {
			for s := 1; s <= fanout; s++ {
				if err := eps[i].Send(model.NodeID((i+s-1)%nodes+1), 1, []byte{byte(i), byte(s)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		before := tn.IOStats()
		if n := tn.DeliverAll(); n != nodes*fanout {
			t.Fatalf("phase %d delivered %d, want %d", p, n, nodes*fanout)
		}
		if d := ioDelta(before, tn.IOStats()); d.Writes > 1 || d.FramesIn != nodes*fanout {
			t.Fatalf("phase %d: %d writes for %d frames in, want at most 1 write", p, d.Writes, d.FramesIn)
		}
	}
	for i := 1; i <= nodes; i++ {
		if got[i] != phases*fanout {
			t.Errorf("node %d got %d messages, want %d", i, got[i], phases*fanout)
		}
	}
	if n := inboundConns(t, tn, ""); n != 1 {
		t.Fatalf("the shared listener has %d inbound connections, want 1", n)
	}
}

// TestTCPStaticBookSharedAddress: a static book that places ids 1–4 at one
// address gives them one listener, and they exchange messages over it —
// what a process hosting several ids of a deployment's roster needs. The
// listener hosts every id the book places at its address from the start:
// a frame for one not registered yet is discarded at drain, and the
// frames behind it on the connection still arrive.
func TestTCPStaticBookSharedAddress(t *testing.T) {
	addr := freeAddrs(t, 1)[1]
	book := map[model.NodeID]string{1: addr, 2: addr, 3: addr, 4: addr}
	tn := NewTCPNet(book)
	tn.SetStepped(5 * time.Second)
	defer func() { _ = tn.Close() }()
	cols := make([]collector, 5)
	eps := make([]Endpoint, 5)
	register := func(i int) {
		ep, err := tn.Register(model.NodeID(i), cols[i].handle)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	for i := 1; i <= 3; i++ {
		register(i)
	}
	if err := eps[1].Send(4, 9, []byte("early")); err != nil {
		t.Fatal(err)
	}
	if err := eps[1].Send(2, 9, []byte("behind it")); err != nil {
		t.Fatal(err)
	}
	if n := tn.DeliverAll(); n != 1 || len(cols[2].msgs) != 1 {
		t.Fatalf("DeliverAll delivered %d, node 2 got %d; want node 2's frame only", n, len(cols[2].msgs))
	}
	cols[2].msgs = nil
	register(4)
	if len(tn.listeners) != 1 || tn.listeners[addr] == nil {
		t.Fatalf("four ids at %s opened %d listeners, want 1 at that address", addr, len(tn.listeners))
	}
	for from := 1; from <= 4; from++ {
		for to := 1; to <= 4; to++ {
			if from != to {
				if err := eps[from].Send(model.NodeID(to), uint8(from), []byte{byte(from), byte(to)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if n := tn.DeliverAll(); n != 12 {
		t.Fatalf("DeliverAll delivered %d, want 12", n)
	}
	for to := 1; to <= 4; to++ {
		if len(cols[to].msgs) != 3 {
			t.Fatalf("node %d got %d messages, want 3", to, len(cols[to].msgs))
		}
		for _, m := range cols[to].msgs {
			if m.To != model.NodeID(to) || int(m.Kind) != int(m.From) || !bytes.Equal(m.Payload, []byte{byte(m.From), byte(to)}) {
				t.Fatalf("node %d got %+v", to, m)
			}
		}
	}
	if n := inboundConns(t, tn, addr); n != 1 {
		t.Fatalf("the shared listener has %d inbound connections, want 1", n)
	}
}

// TestTCPUnregisterOnSharedListener: an id leaves its shared listener
// while frames to it are still in its sender's writer, on the wire, or in
// the inbox. None reaches its handler, the traffic ledger is MemNet's for
// the same script (charged to both ends, then discarded), and a peer on
// the same listener gets its own frames in the same DeliverAll, over the
// connection that stays up.
func TestTCPUnregisterOnSharedListener(t *testing.T) {
	// script sends a phase in which node 2 leaves at the point stage
	// picks, and returns what each node's handler got.
	script := func(nw FaultyNetwork, stage func()) []int {
		got := make([]int, 4)
		eps := make([]Endpoint, 4)
		for i := 1; i <= 3; i++ {
			ep, err := nw.Register(model.NodeID(i), func(m Message) { got[m.To]++ })
			if err != nil {
				t.Fatal(err)
			}
			eps[i] = ep
		}
		for k := 0; k < 3; k++ {
			for _, send := range []struct{ from, to model.NodeID }{{1, 2}, {1, 3}, {3, 2}} {
				if err := eps[send.from].Send(send.to, 1, bytes.Repeat([]byte{byte(k)}, 10+k)); err != nil {
					t.Fatal(err)
				}
			}
		}
		stage()
		if !nw.Unregister(2) {
			t.Fatal("Unregister(2) reported not registered")
		}
		if n := nw.DeliverAll(); n != 3 {
			t.Fatalf("%s: DeliverAll delivered %d, want node 3's 3", nw.Name(), n)
		}
		return got
	}
	ledger := func(nw FaultyNetwork) [4]Traffic {
		var l [4]Traffic
		for i := 1; i <= 3; i++ {
			l[i] = nw.TrafficOf(model.NodeID(i))
		}
		return l
	}

	mem := NewMemNet()
	memGot := script(mem, func() {})
	if memGot[2] != 0 || memGot[3] != 3 {
		t.Fatalf("mem: delivered %v", memGot)
	}
	want := ledger(mem)

	for _, tc := range []struct {
		name  string
		stage func(tn *TCPNet)
	}{
		{"queued", func(*TCPNet) {}},
		{"in flight", func(tn *TCPNet) { tn.FlushAll() }},
		{"in the inbox", func(tn *TCPNet) {
			tn.FlushAll()
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				tn.inboxMu.Lock()
				n := len(tn.inbox)
				tn.inboxMu.Unlock()
				if n == 9 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d of 9 frames reached the inbox", n)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tn := newSteppedTCP(t)
			got := script(tn, func() { tc.stage(tn) })
			if got[2] != 0 || got[3] != 3 {
				t.Fatalf("delivered %v, want nothing to the departed node 2 and 3 to node 3", got)
			}
			if l := ledger(tn); l != want {
				t.Fatalf("ledger %+v, MemNet's %+v", l, want)
			}
			if n := inboundConns(t, tn, ""); n != 1 {
				t.Fatalf("%d inbound connections after the leave, want the 1 still up", n)
			}
		})
	}
}

// TestTCPFrameForUnhostedIDDropsConnection: a frame, or a jumbo's
// sub-frame, for an id the listener never hosted is a protocol violation
// that drops the connection; one for an id that has left is not, and the
// frames after it are delivered.
func TestTCPFrameForUnhostedIDDropsConnection(t *testing.T) {
	tn := newSteppedTCP(t)
	var got []model.NodeID
	for _, id := range []model.NodeID{1, 2, 3} {
		if _, err := tn.Register(id, func(m Message) { got = append(got, m.To) }); err != nil {
			t.Fatal(err)
		}
	}
	if !tn.Unregister(3) {
		t.Fatal("Unregister(3) reported not registered")
	}
	addr := tn.listeners[""].addr
	// dropped reports whether the listener closed a raw connection that
	// wrote stream.
	dropped := func(stream []byte) bool {
		t.Helper()
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(stream); err != nil {
			t.Fatal(err)
		}
		_ = c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		_, err = c.Read(make([]byte, 1))
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return false
		}
		if err != io.EOF && !errors.Is(err, net.ErrClosed) {
			t.Logf("read after the violation: %v", err)
		}
		return true
	}
	for name, stream := range map[string][]byte{
		"frame": buildFrame(1, 99, 1, []byte("stray")),
		"jumbo": buildJumbo(2, buildFrame(1, 2, 1, []byte("ok")), buildFrame(1, 99, 1, []byte("stray"))),
	} {
		if !dropped(stream) {
			t.Errorf("%s for an id the listener never hosted kept the connection up", name)
		}
	}
	// A frame for the departed node 3, then one for node 1, inside a jumbo
	// and after it: the connection stays up and node 1 gets both of its own,
	// behind the frame for node 2 that the dropped jumbo carried first. The
	// raw writes raised no inflight count, so the test drains by deadline.
	if dropped(append(buildJumbo(1, buildFrame(2, 3, 1, []byte("late")), buildFrame(2, 1, 1, []byte("a"))),
		buildFrame(2, 1, 1, []byte("b"))...)) {
		t.Fatal("a frame for a departed id dropped the connection")
	}
	tn.DeliverUntil(time.Now().Add(100 * time.Millisecond))
	if !slices.Equal(got, []model.NodeID{2, 1, 1}) {
		t.Fatalf("handlers got frames for %v, want [2 1 1]", got)
	}
}
