package transport

import (
	"bytes"
	"fmt"
	"net"
	"sync"
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

// collector gathers messages thread-safely.
type collector struct {
	mu   sync.Mutex
	msgs []Message
	cond *sync.Cond
}

func newCollector() *collector {
	c := &collector{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *collector) handle(m Message) {
	m.Payload = bytes.Clone(m.Payload) // a handler keeps no view of its payload
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *collector) waitFor(t *testing.T, n int) []Message {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.msgs) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: have %d messages, want %d", len(c.msgs), n)
		}
		c.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		c.mu.Lock()
	}
	out := make([]Message, len(c.msgs))
	copy(out, c.msgs)
	return out
}

func TestTCPRoundTrip(t *testing.T) {
	book := freeAddrs(t, 2)
	tn := NewTCPNet(book)
	defer func() { _ = tn.Close() }()

	col := newCollector()
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
	msgs := col.waitFor(t, 1)
	m := msgs[0]
	if m.From != 1 || m.To != 2 || m.Kind != 5 || string(m.Payload) != "over tcp" {
		t.Fatalf("got %+v", m)
	}
}

func TestTCPMultipleMessagesOneConn(t *testing.T) {
	book := freeAddrs(t, 2)
	tn := NewTCPNet(book)
	defer func() { _ = tn.Close() }()

	col := newCollector()
	_, _ = tn.Register(2, col.handle)
	ep1, _ := tn.Register(1, func(Message) {})

	const n = 20
	for i := 0; i < n; i++ {
		if err := ep1.Send(2, uint8(i), []byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	msgs := col.waitFor(t, n)
	for i, m := range msgs {
		if int(m.Kind) != i {
			t.Fatalf("out of order at %d: kind %d", i, m.Kind)
		}
	}
}

func TestTCPBidirectional(t *testing.T) {
	book := freeAddrs(t, 2)
	tn := NewTCPNet(book)
	defer func() { _ = tn.Close() }()

	col1, col2 := newCollector(), newCollector()
	ep1, _ := tn.Register(1, col1.handle)
	ep2, _ := tn.Register(2, col2.handle)

	_ = ep1.Send(2, 1, []byte("ping"))
	col2.waitFor(t, 1)
	_ = ep2.Send(1, 2, []byte("pong"))
	msgs := col1.waitFor(t, 1)
	if string(msgs[0].Payload) != "pong" {
		t.Fatal("pong lost")
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

	cols := make([]*collector, n)
	eps := make([]Endpoint, n)
	for i := 0; i < n; i++ {
		cols[i] = newCollector()
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
	for i := 0; i < n; i++ {
		cols[i].waitFor(t, n-1)
	}
}
