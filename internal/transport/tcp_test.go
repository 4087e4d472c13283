package transport

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/model"
)

// freeAddrs reserves n distinct loopback addresses.
func freeAddrs(t *testing.T, n int) map[model.NodeID]string {
	t.Helper()
	book := make(map[model.NodeID]string, n)
	listeners := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners = append(listeners, ln)
		book[model.NodeID(i+1)] = ln.Addr().String()
	}
	for _, ln := range listeners {
		_ = ln.Close()
	}
	return book
}

// collector keeps what its handler is given. Handlers run on the
// goroutine that drains the net, so it needs no lock.
type collector struct{ msgs []Message }

func (c *collector) handle(m Message) {
	m.Payload = bytes.Clone(m.Payload) // a handler keeps no view of its payload
	c.msgs = append(c.msgs, m)
}

func TestTCPRoundTrip(t *testing.T) {
	book := freeAddrs(t, 2)
	tn := NewTCPNet(book)
	defer func() { _ = tn.Close() }()

	var col collector
	if _, err := tn.Register(2, col.handle); err != nil {
		t.Fatal(err)
	}
	ep1, err := tn.Register(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}

	if err := ep1.Send(2, 5, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	if got := tn.DeliverAll(); got != 1 {
		t.Fatalf("DeliverAll delivered %d, want 1", got)
	}
	m := col.msgs[0]
	if m.From != 1 || m.To != 2 || m.Kind != 5 || string(m.Payload) != "over tcp" {
		t.Fatalf("got %+v", m)
	}
}

func TestTCPMultipleMessagesOneConn(t *testing.T) {
	book := freeAddrs(t, 2)
	tn := NewTCPNet(book)
	defer func() { _ = tn.Close() }()

	var col collector
	_, _ = tn.Register(2, col.handle)
	ep1, _ := tn.Register(1, func(Message) {})

	const n = 20
	for i := 0; i < n; i++ {
		if err := ep1.Send(2, uint8(i), []byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := tn.DeliverAll(); got != n {
		t.Fatalf("DeliverAll delivered %d, want %d", got, n)
	}
	for i, m := range col.msgs {
		if int(m.Kind) != i {
			t.Fatalf("out of order at %d: kind %d", i, m.Kind)
		}
	}
}

func TestTCPBidirectional(t *testing.T) {
	book := freeAddrs(t, 2)
	tn := NewTCPNet(book)
	defer func() { _ = tn.Close() }()

	var col1, col2 collector
	ep1, _ := tn.Register(1, col1.handle)
	ep2, _ := tn.Register(2, col2.handle)

	_ = ep1.Send(2, 1, []byte("ping"))
	tn.DeliverAll()
	if len(col2.msgs) != 1 {
		t.Fatal("ping lost")
	}
	_ = ep2.Send(1, 2, []byte("pong"))
	tn.DeliverAll()
	if len(col1.msgs) != 1 || string(col1.msgs[0].Payload) != "pong" {
		t.Fatal("pong lost")
	}
}

// TestTCPDeliverUntil: a paced driver's delivery. A frame another TCPNet —
// another process — sends while the call waits is handled on the calling
// goroutine before the deadline, and with nothing in flight the call
// sleeps to its deadline and no further.
func TestTCPDeliverUntil(t *testing.T) {
	book := freeAddrs(t, 2)
	local, remote := NewTCPNet(book), NewTCPNet(book)
	defer func() { _ = local.Close(); _ = remote.Close() }()

	// draining is written and read on this goroutine only: a handler run
	// anywhere else is a data race under -race, and one run outside the
	// call sees false.
	draining := false
	var got []byte
	var handled time.Time
	if _, err := local.Register(2, func(m Message) {
		if !draining {
			t.Error("handler ran outside DeliverUntil")
		}
		got, handled = bytes.Clone(m.Payload), time.Now()
	}); err != nil {
		t.Fatal(err)
	}
	ep1, err := remote.Register(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		if err := ep1.Send(2, 1, []byte("paced")); err != nil {
			t.Error(err)
		}
		remote.FlushAll()
	}()

	deadline := time.Now().Add(500 * time.Millisecond)
	draining = true
	n := local.DeliverUntil(deadline)
	draining = false
	if n != 1 || string(got) != "paced" {
		t.Fatalf("DeliverUntil delivered %d (%q), want the one frame", n, got)
	}
	if !handled.Before(deadline) {
		t.Errorf("frame handled %v after the deadline", handled.Sub(deadline))
	}
	if time.Now().Before(deadline) {
		t.Error("DeliverUntil returned before its deadline")
	}

	deadline = time.Now().Add(100 * time.Millisecond)
	if n := local.DeliverUntil(deadline); n != 0 {
		t.Fatalf("idle DeliverUntil delivered %d", n)
	}
	if late := time.Since(deadline); late < 0 || late > 25*time.Millisecond {
		t.Errorf("idle DeliverUntil returned %v after its deadline", late)
	}
}

func TestTCPUnknownDestination(t *testing.T) {
	book := freeAddrs(t, 1)
	tn := NewTCPNet(book)
	defer func() { _ = tn.Close() }()
	ep1, _ := tn.Register(1, func(Message) {})
	if err := ep1.Send(42, 0, nil); err == nil {
		t.Fatal("unknown destination accepted")
	}
}

func TestTCPRegisterErrors(t *testing.T) {
	book := freeAddrs(t, 1)
	tn := NewTCPNet(book)
	defer func() { _ = tn.Close() }()
	if _, err := tn.Register(9, func(Message) {}); err == nil {
		t.Fatal("node outside address book accepted")
	}
	if _, err := tn.Register(1, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
	if _, err := tn.Register(1, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Register(1, func(Message) {}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestTCPManyNodes(t *testing.T) {
	const n = 8
	book := freeAddrs(t, n)
	tn := NewTCPNet(book)
	defer func() { _ = tn.Close() }()

	cols := make([]collector, n)
	eps := make([]Endpoint, n)
	for i := 0; i < n; i++ {
		ep, err := tn.Register(model.NodeID(i+1), cols[i].handle)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	// Everyone sends to everyone.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if err := eps[i].Send(model.NodeID(j+1), 1, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := tn.DeliverAll(); got != n*(n-1) {
		t.Fatalf("DeliverAll delivered %d, want %d", got, n*(n-1))
	}
	for i := range cols {
		if len(cols[i].msgs) != n-1 {
			t.Errorf("node %d got %d messages, want %d", i+1, len(cols[i].msgs), n-1)
		}
	}
}
