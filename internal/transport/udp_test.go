package transport

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/wire"
)

// newSteppedUDP builds the UDP tests' standard fixture: a dynamic
// stepped UDPNet over loopback datagrams.
func newSteppedUDP(t *testing.T, maxWait time.Duration) *UDPNet {
	t.Helper()
	un := NewUDPNet(nil)
	un.SetDynamic("127.0.0.1")
	un.SetStepped(maxWait)
	t.Cleanup(func() { _ = un.Close() })
	return un
}

// TestUDPRoundTrip: direct (wall-clock) mode — a datagram crosses the
// loopback and lands in the receiver's handler.
func TestUDPRoundTrip(t *testing.T) {
	un := NewUDPNet(nil)
	un.SetDynamic("127.0.0.1")
	defer func() { _ = un.Close() }()

	got := make(chan Message, 1)
	if _, err := un.Register(2, func(m Message) {
		m.Payload = bytes.Clone(m.Payload)
		got <- m
	}); err != nil {
		t.Fatal(err)
	}
	ep1, err := un.Register(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep1.Send(2, 1, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.From != 1 || m.To != 2 || m.Kind != 1 || string(m.Payload) != "ping" {
			t.Fatalf("bad message: %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("datagram never arrived")
	}
}

// TestUDPSteppedDelivery: reliable and fire-and-forget kinds share one
// container per (sender, destination, phase), and DeliverAll drains
// both classes completely on loopback.
func TestUDPSteppedDelivery(t *testing.T) {
	un := newSteppedUDP(t, 5*time.Second)

	var mu sync.Mutex
	byKind := map[uint8]int{}
	if _, err := un.Register(2, func(m Message) {
		mu.Lock()
		byKind[m.Kind]++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	ep1, err := un.Register(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}

	const per = 10
	before := un.IOStats()
	for k := 0; k < per; k++ {
		// Kind 1 (exchange) rides the ack/retransmit layer; KindAckCopy
		// is classified loss-tolerant and goes fire-and-forget.
		if err := ep1.Send(2, 1, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
		if err := ep1.Send(2, wire.KindAckCopy, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	un.DeliverAll()
	d := ioDelta(before, un.IOStats())

	mu.Lock()
	defer mu.Unlock()
	if byKind[1] != per || byKind[wire.KindAckCopy] != per {
		t.Fatalf("delivered %d reliable / %d fire-and-forget, want %d each", byKind[1], byKind[wire.KindAckCopy], per)
	}
	// 20 frames in one phase toward one destination: container batching
	// keeps data-path writes far below frame count (acks ride their own
	// datagrams).
	if d.Jumbo == 0 {
		t.Fatalf("no multi-frame container despite %d frames in one phase", 2*per)
	}
	if !wire.LossTolerant(wire.KindAckCopy) || wire.LossTolerant(wire.KindAck) || wire.LossTolerant(wire.KindAccusation) {
		t.Fatal("loss-tolerance classification: monitoring kinds only, never exchange or judicial")
	}
}

// TestUDPReliableSurvivesRetransmit: even when the first transmission's
// ack races the retransmit timer, dedup guarantees exactly-once
// delivery to the handler. The test forces retransmission by holding
// the receiver's drain until past the RTO (stepped inbox only drains in
// DeliverAll, but acks are sent on wire receipt — so instead the test
// rewrites the frame's sentAt to look overdue and fires the timer path
// directly).
func TestUDPReliableSurvivesRetransmit(t *testing.T) {
	un := newSteppedUDP(t, 5*time.Second)

	var mu sync.Mutex
	got := 0
	if _, err := un.Register(2, func(Message) {
		mu.Lock()
		got++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	ep1, err := un.Register(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	e1 := ep1.(*udpEndpoint)

	if err := ep1.Send(2, 1, []byte("once")); err != nil {
		t.Fatal(err)
	}
	// Flush the container, then immediately replay it as the retransmit
	// path would: the receiver sees the same (source, seq) twice.
	e1.flushAll()
	e1.mu.Lock()
	p := e1.peers[2]
	forced := 0
	for _, f := range p.unacked {
		f.sentAt = f.sentAt.Add(-time.Hour) // long overdue
		forced++
	}
	e1.mu.Unlock()
	if forced != 1 {
		// The loopback ack may have already landed; the dedup claim
		// still holds trivially, but the test wants the duplicate on the
		// wire, so resend unconditionally via the timer path when the
		// frame is still unacked.
		t.Logf("ack raced the forced retransmit (%d unacked)", forced)
	}
	e1.retransmitDue(time.Now())
	if un.DeliverAll() == 0 && got == 0 {
		t.Fatal("nothing delivered")
	}

	mu.Lock()
	defer mu.Unlock()
	if got != 1 {
		t.Fatalf("delivered %d copies of a retransmitted frame, want exactly 1", got)
	}
}

// TestUDPDedupWindow: the per-source window flags replayed sequence
// numbers and prunes far-stale state without forgetting recent ones.
func TestUDPDedupWindow(t *testing.T) {
	s := &udpSrc{seen: make(map[uint32]struct{})}
	if s.markSeenLocked(5) {
		t.Fatal("first sighting of seq 5 flagged as duplicate")
	}
	if !s.markSeenLocked(5) {
		t.Fatal("second sighting of seq 5 not flagged")
	}
	for seq := uint32(6); seq < 6+3*dedupWindow; seq++ {
		if s.markSeenLocked(seq) {
			t.Fatalf("fresh seq %d flagged as duplicate", seq)
		}
	}
	if len(s.seen) > 2*dedupWindow {
		t.Fatalf("dedup window grew to %d entries, bound is %d", len(s.seen), 2*dedupWindow)
	}
	if !s.markSeenLocked(6 + 3*dedupWindow - 1) {
		t.Fatal("the newest seq was pruned")
	}
}

// TestUDPSendErrors: oversized payloads and unknown destinations are
// caller errors, not wire events.
func TestUDPSendErrors(t *testing.T) {
	un := newSteppedUDP(t, time.Second)
	ep1, err := un.Register(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := un.Register(2, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := ep1.Send(9, 1, []byte("x")); err == nil {
		t.Fatal("send to unknown destination succeeded")
	}
	if err := ep1.Send(2, 1, make([]byte, MaxUDPPayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	if err := ep1.Send(2, 1, make([]byte, 1024)); err != nil {
		t.Fatalf("in-bounds send failed: %v", err)
	}
}

// TestUDPManyNodes: an 8-node all-to-all phase drains completely.
func TestUDPManyNodes(t *testing.T) {
	un := newSteppedUDP(t, 10*time.Second)

	const nodes = 8
	const per = 3
	var mu sync.Mutex
	got := make(map[model.NodeID]int)
	eps := make(map[model.NodeID]Endpoint)
	for i := 1; i <= nodes; i++ {
		id := model.NodeID(i)
		ep, err := un.Register(id, func(Message) {
			mu.Lock()
			got[id]++
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		eps[id] = ep
	}
	for from := 1; from <= nodes; from++ {
		for to := 1; to <= nodes; to++ {
			if from == to {
				continue
			}
			for k := 0; k < per; k++ {
				if err := eps[model.NodeID(from)].Send(model.NodeID(to), 1, []byte{byte(from), byte(to), byte(k)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	un.DeliverAll()
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i <= nodes; i++ {
		if got[model.NodeID(i)] != (nodes-1)*per {
			t.Fatalf("node %d got %d messages, want %d", i, got[model.NodeID(i)], (nodes-1)*per)
		}
	}
}

// TestUDPVanishedReceiverBounded: a reliable frame toward a node that
// departs before the flush must not wedge DeliverAll — the quiesce
// budget bounds the wait while the retry cap owns the abandonment.
func TestUDPVanishedReceiverBounded(t *testing.T) {
	un := newSteppedUDP(t, 500*time.Millisecond)
	ep1, err := un.Register(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := un.Register(2, func(Message) { t.Error("departed node got traffic") }); err != nil {
		t.Fatal(err)
	}
	if err := ep1.Send(2, 1, []byte("into the void")); err != nil {
		t.Fatal(err)
	}
	if !un.Unregister(2) {
		t.Fatal("Unregister(2) reported not registered")
	}
	start := time.Now()
	un.DeliverAll()
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("DeliverAll took %v against a 500ms budget", elapsed)
	}
}
