package transport

import (
	"sync"
	"testing"

	"repro/internal/model"
)

func TestMemNetRegisterValidation(t *testing.T) {
	n := NewMemNet()
	if _, err := n.Register(model.NoNode, func(Message) {}); err == nil {
		t.Fatal("NoNode accepted")
	}
	if _, err := n.Register(1, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
	if _, err := n.Register(1, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register(1, func(Message) {}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestMemNetDelivery(t *testing.T) {
	n := NewMemNet()
	var got []Message
	_, err := n.Register(2, func(m Message) { got = append(got, m) })
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := n.Register(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}

	if err := ep1.Send(2, 7, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("message delivered before deliverPending")
	}
	if n.PendingCount() != 1 {
		t.Fatalf("PendingCount = %d", n.PendingCount())
	}
	if d := n.deliverPending(); d != 1 {
		t.Fatalf("delivered %d", d)
	}
	if len(got) != 1 || got[0].From != 1 || got[0].To != 2 ||
		got[0].Kind != 7 || string(got[0].Payload) != "hello" {
		t.Fatalf("got %+v", got)
	}
}

// TestMemNetSendOwnership: Send takes the slice it is given. Every
// recipient of a fan-out is delivered that very array — no copy on the way
// in, none at the merge, none when an upload cap parks the message in the
// link queue for a round.
func TestMemNetSendOwnership(t *testing.T) {
	n := NewMemNet()
	var got []Message
	record := func(m Message) { got = append(got, m) }
	_, _ = n.Register(2, record)
	_, _ = n.Register(3, record)
	ep1, _ := n.Register(1, func(Message) {})
	buf := []byte("abc")
	n.Faults().SetUploadCap(1, uint64(HeaderBytes+len(buf)))
	_ = ep1.Send(2, 0, buf)
	_ = ep1.Send(3, 0, buf) // over budget: deferred to the next round
	n.DeliverAll()
	n.BeginRound()
	n.DeliverAll()
	if len(got) != 2 || got[0].To != 2 || got[1].To != 3 {
		t.Fatalf("delivered %+v", got)
	}
	for _, m := range got {
		if &m.Payload[0] != &buf[0] || len(m.Payload) != len(buf) {
			t.Fatalf("message to %v was delivered a copy", m.To)
		}
	}
}

// TestSendLent: a lent buffer goes to a keeping endpoint as one clone
// that every destination shares, and to a copying endpoint as it is; on
// either, the caller may overwrite it as soon as SendLent returns.
func TestSendLent(t *testing.T) {
	mem := NewMemNet()
	tn := NewTCPNet(nil)
	tn.SetDynamic("127.0.0.1")
	defer func() { _ = tn.Close() }()
	for _, nw := range []FaultyNetwork{mem, tn} {
		var got []Message
		record := func(m Message) { got = append(got, Message{To: m.To, Payload: append([]byte(nil), m.Payload...)}) }
		ep1, _ := nw.Register(1, func(Message) {})
		_, _ = nw.Register(2, record)
		_, _ = nw.Register(3, record)
		buf := []byte("lent")
		if err := SendLent(ep1, 0, buf, 2, 3); err != nil {
			t.Fatal(err)
		}
		if nw == mem {
			ep := ep1.(*memEndpoint)
			a, b := ep.outbox[0].Payload, ep.outbox[1].Payload
			if &a[0] == &buf[0] || &a[0] != &b[0] {
				t.Fatal("MemNet: want one clone shared by both destinations")
			}
		}
		copy(buf, "XXXX")
		nw.DeliverAll()
		if len(got) != 2 || string(got[0].Payload) != "lent" || string(got[1].Payload) != "lent" {
			t.Fatalf("%s: delivered %+v", nw.Name(), got)
		}
	}
}

// TestMemNetSteadyStateAllocations: once the outboxes and the merge
// scratch have grown to a wave's size, sending and merging allocate
// nothing.
func TestMemNetSteadyStateAllocations(t *testing.T) {
	n := NewMemNet()
	const nodes = 8
	eps := make([]Endpoint, nodes)
	for i := range eps {
		eps[i], _ = n.Register(model.NodeID(i+1), func(Message) {})
	}
	payload := make([]byte, 64)
	wave := func() {
		for i, ep := range eps {
			for j := 1; j <= 3; j++ {
				_ = ep.Send(model.NodeID((i+j)%nodes+1), 1, payload)
			}
		}
	}
	wave()
	n.DeliverAll()
	if allocs := testing.AllocsPerRun(100, wave); allocs != 0 {
		t.Errorf("Send allocates %.0f objects per wave of %d (amortised)", allocs, 3*nodes)
	}
	n.DeliverAll()
	if allocs := testing.AllocsPerRun(100, func() {
		wave()
		n.DeliverAll()
	}); allocs != 0 {
		t.Errorf("a send-and-deliver wave allocates %.0f objects", allocs)
	}
}

func TestMemNetUnknownDestination(t *testing.T) {
	n := NewMemNet()
	ep1, _ := n.Register(1, func(Message) {})
	if err := ep1.Send(42, 0, nil); err == nil {
		t.Fatal("unknown destination accepted")
	}
}

func TestMemNetDeliverAllCascades(t *testing.T) {
	n := NewMemNet()
	// Node 2 forwards to 3 upon reception; node 3 records.
	received := 0
	var ep2 Endpoint
	_, _ = n.Register(3, func(Message) { received++ })
	ep2, _ = n.Register(2, func(m Message) {
		_ = ep2.Send(3, m.Kind, m.Payload)
	})
	ep1, _ := n.Register(1, func(Message) {})

	_ = ep1.Send(2, 1, []byte("x"))
	total := n.DeliverAll()
	if total != 2 {
		t.Fatalf("DeliverAll delivered %d, want 2", total)
	}
	if received != 1 {
		t.Fatalf("node 3 received %d", received)
	}
}

func TestMemNetTrafficAccounting(t *testing.T) {
	n := NewMemNet()
	_, _ = n.Register(2, func(Message) {})
	ep1, _ := n.Register(1, func(Message) {})

	payload := make([]byte, 100)
	_ = ep1.Send(2, 0, payload)
	n.deliverPending()

	want := uint64(HeaderBytes + 100)
	t1 := n.TrafficOf(1)
	t2 := n.TrafficOf(2)
	if t1.BytesOut != want || t1.MsgsOut != 1 || t1.BytesIn != 0 {
		t.Fatalf("sender traffic %+v", t1)
	}
	if t2.BytesIn != want || t2.MsgsIn != 1 || t2.BytesOut != 0 {
		t.Fatalf("receiver traffic %+v", t2)
	}
	// Conservation: Σout == Σin when nothing is dropped.
	tot := n.TotalTraffic()
	if tot.BytesOut != tot.BytesIn {
		t.Fatalf("conservation broken: %+v", tot)
	}
	if got := n.TrafficOf(99); got != (Traffic{}) {
		t.Fatal("unknown node should have zero traffic")
	}
}

func TestTrafficSubAdd(t *testing.T) {
	a := Traffic{BytesIn: 10, BytesOut: 20, MsgsIn: 1, MsgsOut: 2}
	b := Traffic{BytesIn: 4, BytesOut: 5, MsgsIn: 1, MsgsOut: 1}
	d := a.Sub(b)
	if d != (Traffic{BytesIn: 6, BytesOut: 15, MsgsIn: 0, MsgsOut: 1}) {
		t.Fatalf("Sub = %+v", d)
	}
	b.Add(d)
	if b != a {
		t.Fatalf("Add: %+v != %+v", b, a)
	}
}

func TestMemNetDrop(t *testing.T) {
	n := NewMemNet()
	received := 0
	_, _ = n.Register(2, func(Message) { received++ })
	ep1, _ := n.Register(1, func(Message) {})

	n.Faults().SetDropFunc(func(m Message) bool { return m.Kind == 9 })
	_ = ep1.Send(2, 9, []byte("dropped"))
	_ = ep1.Send(2, 1, []byte("kept"))
	n.DeliverAll()

	if received != 1 {
		t.Fatalf("received %d, want 1", received)
	}
	if n.Faults().Dropped() != 1 {
		t.Fatalf("Dropped = %d", n.Faults().Dropped())
	}
	// Sender is charged for dropped bytes; receiver is not.
	if n.TrafficOf(1).MsgsOut != 2 || n.TrafficOf(2).MsgsIn != 1 {
		t.Fatal("drop accounting wrong")
	}
	n.Faults().SetDropFunc(nil)
	_ = ep1.Send(2, 9, []byte("now kept"))
	n.DeliverAll()
	if received != 2 {
		t.Fatal("clearing drop func failed")
	}
}

func TestMemNetFIFOOrder(t *testing.T) {
	n := NewMemNet()
	var order []uint8
	_, _ = n.Register(2, func(m Message) { order = append(order, m.Kind) })
	ep1, _ := n.Register(1, func(Message) {})
	for k := uint8(0); k < 10; k++ {
		_ = ep1.Send(2, k, nil)
	}
	n.deliverPending()
	for i, k := range order {
		if int(k) != i {
			t.Fatalf("order[%d] = %d", i, k)
		}
	}
}

func TestMemNetConcurrentSends(t *testing.T) {
	n := NewMemNet()
	var mu sync.Mutex
	count := 0
	_, _ = n.Register(1, func(Message) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	const senders, per = 8, 50
	eps := make([]Endpoint, senders)
	for i := 0; i < senders; i++ {
		ep, err := n.Register(model.NodeID(i+2), func(Message) {})
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	var wg sync.WaitGroup
	for _, ep := range eps {
		wg.Add(1)
		go func(e Endpoint) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				_ = e.Send(1, 0, []byte("m"))
			}
		}(ep)
	}
	wg.Wait()
	n.DeliverAll()
	if count != senders*per {
		t.Fatalf("delivered %d, want %d", count, senders*per)
	}
}

func TestWireSize(t *testing.T) {
	m := Message{Payload: make([]byte, 10)}
	if m.WireSize() != HeaderBytes+10 {
		t.Fatalf("WireSize = %d", m.WireSize())
	}
}

func TestMemNetEndpointSurvivesReRegistration(t *testing.T) {
	n := NewMemNet()
	got := 0
	_, _ = n.Register(2, func(Message) { got++ })
	ep1, _ := n.Register(1, func(Message) {})

	// Unregister with a buffered message: the endpoint stays in the
	// merge set and the message still reaches its destination.
	_ = ep1.Send(2, 0, []byte("buffered"))
	n.Unregister(1)
	n.DeliverAll()
	if got != 1 {
		t.Fatalf("buffered message lost across Unregister: delivered %d", got)
	}

	// Now drained and unregistered: the endpoint is pruned from the
	// merge set, but a later Send from the stale handle re-attaches it.
	n.DeliverAll()
	_ = ep1.Send(2, 0, []byte("stale handle"))
	n.DeliverAll()
	if got != 2 {
		t.Fatalf("stale-handle send lost after prune: delivered %d", got)
	}

	// Re-registration reuses the same endpoint identity: the old handle
	// and the new one feed one outbox, in send order.
	ep1b, err := n.Register(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	_ = ep1.Send(2, 0, []byte("old handle"))
	_ = ep1b.Send(2, 0, []byte("new handle"))
	n.DeliverAll()
	if got != 4 {
		t.Fatalf("handles diverged after re-registration: delivered %d", got)
	}
	if ep1 != ep1b {
		t.Fatal("re-registration minted a second endpoint for the same id")
	}
}
