package transport

import (
	"testing"

	"repro/internal/model"
)

// faultNet registers n nodes (1..n) counting deliveries per node.
func faultNet(t *testing.T, n int) (*MemNet, []Endpoint, []int) {
	t.Helper()
	net := NewMemNet()
	eps := make([]Endpoint, n+1)
	got := make([]int, n+1)
	for i := 1; i <= n; i++ {
		id := model.NodeID(i)
		i := i
		ep, err := net.Register(id, func(Message) { got[i]++ })
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	return net, eps, got
}

// TestLossRateDeterministic: scripted loss is retransmitted, never a drop.
// Every message arrives, each lost attempt is charged to the sender, the
// receiver is charged once, and the same seed loses the same attempts.
func TestLossRateDeterministic(t *testing.T) {
	const msgs = 200
	size := uint64(Message{Payload: []byte("x")}.WireSize())
	run := func() uint64 {
		net, eps, got := faultNet(t, 2)
		net.Faults().SetSeed(42)
		net.Faults().SetLossRate(0.5)
		for i := 0; i < msgs; i++ {
			_ = eps[1].Send(2, 1, []byte("x"))
		}
		net.DeliverAll()
		if got[2] != msgs || net.Faults().Dropped() != 0 {
			t.Fatalf("50%% loss delivered %d/%d and dropped %d, want all delivered", got[2], msgs, net.Faults().Dropped())
		}
		re := net.Faults().Retransmitted()
		if out := net.TrafficOf(1).BytesOut; out != (msgs+re)*size {
			t.Fatalf("sender charged %d B, want (%d + %d retransmits) × %d", out, msgs, re, size)
		}
		if in := net.TrafficOf(2).BytesIn; in != msgs*size {
			t.Fatalf("receiver charged %d B, want %d × %d", in, msgs, size)
		}
		return re
	}
	r1, r2 := run(), run()
	if r1 != r2 {
		t.Fatalf("same seed diverged: %d vs %d retransmits", r1, r2)
	}
	if r1 == 0 {
		t.Fatal("50% loss retransmitted nothing")
	}
}

// TestLossIndependentOfAdmissionOrder: loss is decided by the message, so
// one round's messages admitted in two different sender orders — what two
// transports, or two runs over sockets, may do — cost the same
// retransmissions and leave the same ledger. The set repeats messages
// with equal (from, to, kind, size), whose fates are told apart only by
// how many of them came first.
func TestLossIndependentOfAdmissionOrder(t *testing.T) {
	const nodes = 5
	// bySender[i] is node i+1's send sequence.
	bySender := make([][]Message, nodes)
	for from := model.NodeID(1); from <= nodes; from++ {
		for to := model.NodeID(1); to <= nodes; to++ {
			if from == to {
				continue
			}
			for k := 0; k < 12; k++ {
				bySender[from-1] = append(bySender[from-1], Message{From: from, To: to,
					Kind: uint8(1 + k%3), Payload: make([]byte, 8*(k%4))})
			}
		}
	}
	admit := func(descending bool) *FaultPlane {
		p := NewFaultPlane()
		p.SetSeed(11)
		p.SetLossRate(0.3)
		for round := 0; round < 3; round++ {
			p.BeginRound()
			for i := range bySender {
				if descending {
					i = nodes - 1 - i
				}
				for _, m := range bySender[i] {
					if o, _ := p.admit(m, false); o == OutcomePass {
						p.Arrive(m)
					}
				}
			}
		}
		return p
	}
	up, down := admit(false), admit(true)
	if up.Retransmitted() == 0 {
		t.Fatal("30% loss retransmitted nothing")
	}
	if up.Retransmitted() != down.Retransmitted() {
		t.Errorf("retransmitted %d in ascending sender order, %d in descending", up.Retransmitted(), down.Retransmitted())
	}
	for id := model.NodeID(1); id <= nodes; id++ {
		if a, b := up.TrafficOf(id), down.TrafficOf(id); a != b {
			t.Errorf("node %v: ledger %+v in ascending sender order, %+v in descending", id, a, b)
		}
	}
}

func TestPartitionAndHeal(t *testing.T) {
	net, eps, got := faultNet(t, 4)
	// {1,2} vs implicit {3,4}.
	net.Faults().SetPartition([]model.NodeID{1, 2})
	_ = eps[1].Send(2, 1, nil) // same group
	_ = eps[1].Send(3, 1, nil) // cross
	_ = eps[4].Send(3, 1, nil) // same implicit group
	_ = eps[3].Send(2, 1, nil) // cross
	net.DeliverAll()
	if got[2] != 1 || got[3] != 1 {
		t.Fatalf("partition leaked: got %v", got)
	}
	net.Faults().Heal()
	_ = eps[1].Send(3, 1, nil)
	net.DeliverAll()
	if got[3] != 2 {
		t.Fatal("heal did not restore cross-group delivery")
	}
}

func TestNodeDownDropsBothDirections(t *testing.T) {
	net, eps, got := faultNet(t, 2)
	net.Faults().SetNodeDown(2, true)
	_ = eps[1].Send(2, 1, nil)
	_ = eps[2].Send(1, 1, nil)
	net.DeliverAll()
	if got[1] != 0 || got[2] != 0 {
		t.Fatalf("down node exchanged traffic: got %v", got)
	}
	net.Faults().SetNodeDown(2, false)
	_ = eps[1].Send(2, 1, nil)
	net.DeliverAll()
	if got[2] != 1 {
		t.Fatal("recovered node not reachable")
	}
}

func TestDownAtDeliveryTime(t *testing.T) {
	// A message in flight when the destination crashes is lost.
	net, eps, got := faultNet(t, 2)
	_ = eps[1].Send(2, 1, nil)
	net.Faults().SetNodeDown(2, true)
	net.DeliverAll()
	if got[2] != 0 {
		t.Fatal("in-flight message delivered to a crashed node")
	}
}

func TestUploadCapQueuesAndCarriesOver(t *testing.T) {
	net, eps, got := faultNet(t, 2)
	size := uint64(Message{Payload: make([]byte, 10)}.WireSize())
	net.Faults().SetUploadCap(1, 3*size)
	net.BeginRound()
	for i := 0; i < 5; i++ {
		_ = eps[1].Send(2, 1, make([]byte, 10))
	}
	net.DeliverAll()
	if got[2] != 3 {
		t.Fatalf("cap of 3 messages delivered %d this round", got[2])
	}
	if net.Faults().Deferred() != 2 {
		t.Fatalf("Deferred = %d, want 2 (over-budget messages queue, not drop)", net.Faults().Deferred())
	}
	if net.Faults().CapExpired() != 0 || net.Faults().Dropped() != 0 {
		t.Fatalf("deferral counted as a drop: expired=%d dropped=%d", net.Faults().CapExpired(), net.Faults().Dropped())
	}
	if d := net.Faults().QueueDepth(); d != 2 {
		t.Fatalf("QueueDepth = %d, want 2", d)
	}
	if tr := net.TrafficOf(1); tr.BytesOut != 3*size {
		t.Fatalf("queued bytes charged to sender early: BytesOut=%d want %d", tr.BytesOut, 3*size)
	}
	// The next round's budget releases the backlog — paced by the cap,
	// ahead of fresh traffic, charged at release.
	net.BeginRound()
	net.DeliverAll()
	if got[2] != 5 {
		t.Fatalf("carry-over incomplete: delivered %d total, want 5", got[2])
	}
	if d := net.Faults().QueueDepth(); d != 0 {
		t.Fatalf("QueueDepth = %d after full drain, want 0", d)
	}
	if tr := net.TrafficOf(1); tr.BytesOut != 5*size {
		t.Fatalf("released bytes not charged: BytesOut=%d want %d", tr.BytesOut, 5*size)
	}
	// Removing the cap lifts pacing entirely for fresh sends.
	net.BeginRound()
	net.Faults().SetUploadCap(1, 0)
	for i := 0; i < 5; i++ {
		_ = eps[1].Send(2, 1, make([]byte, 10))
	}
	net.DeliverAll()
	if got[2] != 10 {
		t.Fatalf("after uncap delivered %d total, want 10", got[2])
	}
}

func TestUploadCapFIFOPacing(t *testing.T) {
	// Once anything is queued, later messages wait behind it even if they
	// would fit the remaining budget — a FIFO uplink never reorders.
	net, eps, _ := faultNet(t, 2)
	var order []int
	_ = net.Unregister(2)
	ep, err := net.Register(2, func(m Message) { order = append(order, int(m.Payload[0])) })
	if err != nil {
		t.Fatal(err)
	}
	_ = ep
	big := make([]byte, 100)
	big[0] = 1
	small := []byte{2}
	net.Faults().SetUploadCap(1, uint64(Message{Payload: big}.WireSize())) // exactly one big message per round
	net.BeginRound()
	_ = eps[1].Send(2, 1, big)   // fills the budget
	_ = eps[1].Send(2, 1, big)   // queues
	_ = eps[1].Send(2, 1, small) // would fit nothing anyway, queues behind
	net.DeliverAll()
	net.BeginRound()
	net.DeliverAll()
	net.BeginRound()
	net.DeliverAll()
	want := []int{1, 1, 2}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("delivery order %v, want %v (FIFO pacing)", order, want)
	}
}

func TestUncapMidRoundKeepsFIFO(t *testing.T) {
	// Removing a cap mid-round must not let fresh sends overtake the
	// still-queued backlog: FIFO holds until the next round boundary
	// flushes everything.
	net, eps, _ := faultNet(t, 2)
	var order []int
	_ = net.Unregister(2)
	if _, err := net.Register(2, func(m Message) { order = append(order, int(m.Payload[0])) }); err != nil {
		t.Fatal(err)
	}
	payload := func(tag byte) []byte { return []byte{tag, 0, 0, 0, 0, 0, 0, 0, 0, 0} }
	net.Faults().SetUploadCap(1, uint64(Message{Payload: payload(0)}.WireSize())) // one message per round
	net.BeginRound()
	_ = eps[1].Send(2, 1, payload(1)) // passes at the merge
	_ = eps[1].Send(2, 1, payload(2)) // queues at the merge
	net.DeliverAll()                  // merge point: 1 delivered, 2 deferred
	net.Faults().SetUploadCap(1, 0)   // cap lifted mid-round, backlog still queued
	_ = eps[1].Send(2, 1, payload(3)) // must wait behind 2, not overtake
	net.DeliverAll()
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("round 1 delivered %v, want [1] (backlog must gate fresh sends)", order)
	}
	net.BeginRound() // uncapped boundary flushes the whole backlog in order
	net.DeliverAll()
	want := []int{1, 2, 3}
	if len(order) != 3 || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("delivery order %v, want %v", order, want)
	}
}

func TestOversizedMessageStillPaces(t *testing.T) {
	// A frame larger than the whole per-round budget must not wedge the
	// uplink: it transmits on an untouched round, consuming the entire
	// budget — one oversized frame costs a round, never the queue.
	net, eps, got := faultNet(t, 2)
	big := make([]byte, 200)
	small := make([]byte, 10)
	net.Faults().SetUploadCap(1, uint64(Message{Payload: small}.WireSize())) // budget < big frame
	net.Faults().SetQueueDeadline(0)                                         // expiry off: a wedged queue would hang forever
	net.BeginRound()
	_ = eps[1].Send(2, 1, big) // oversized, fresh round: passes, overshoots the budget
	_ = eps[1].Send(2, 1, small)
	_ = eps[1].Send(2, 1, big) // queues behind
	net.DeliverAll()
	if got[2] != 1 {
		t.Fatalf("round 1 delivered %d, want 1 (the first oversized frame)", got[2])
	}
	net.BeginRound() // small fits the fresh budget exactly; the next big must wait
	net.DeliverAll()
	if got[2] != 2 {
		t.Fatalf("round 2 delivered %d total, want 2", got[2])
	}
	net.BeginRound() // fresh round: the queued oversized frame goes out
	net.DeliverAll()
	if got[2] != 3 {
		t.Fatalf("round 3 delivered %d total, want 3 (oversized frame released)", got[2])
	}
	if d := net.Faults().QueueDepth(); d != 0 {
		t.Fatalf("queue depth %d after drain, want 0 — oversized frame wedged the uplink", d)
	}
	if net.Faults().CapExpired() != 0 || net.Faults().Dropped() != 0 {
		t.Fatalf("oversized pacing dropped traffic: expired=%d dropped=%d",
			net.Faults().CapExpired(), net.Faults().Dropped())
	}
}

func TestDownNodeLosesItsQueue(t *testing.T) {
	// A crash kills the NIC and everything buffered in it: the backlog is
	// dropped at SetNodeDown, and a later recovery (or a quarantined id
	// re-joining) must not replay stale pre-crash traffic.
	net, eps, got := faultNet(t, 2)
	size := uint64(Message{Payload: make([]byte, 10)}.WireSize())
	net.Faults().SetUploadCap(1, size)
	net.Faults().SetQueueDeadline(0) // even with expiry off, the crash clears it
	net.BeginRound()
	for i := 0; i < 4; i++ {
		_ = eps[1].Send(2, 1, make([]byte, 10))
	}
	net.DeliverAll()
	if got[2] != 1 || net.Faults().QueueDepthOf(1) != 3 {
		t.Fatalf("setup: delivered=%d depth=%d, want 1/3", got[2], net.Faults().QueueDepthOf(1))
	}
	net.Faults().SetNodeDown(1, true)
	if d := net.Faults().QueueDepthOf(1); d != 0 {
		t.Fatalf("crashed node kept %d queued messages", d)
	}
	if net.Faults().Dropped() != 3 {
		t.Fatalf("crash-lost backlog not counted: dropped=%d, want 3", net.Faults().Dropped())
	}
	// While down, nothing defers on the dead NIC's behalf — over-budget
	// or not, sends drop immediately.
	_ = eps[1].Send(2, 1, make([]byte, 10))
	_ = eps[1].Send(2, 1, make([]byte, 10))
	net.DeliverAll()
	if d := net.Faults().QueueDepthOf(1); d != 0 {
		t.Fatalf("down sender deferred %d messages", d)
	}
	// Recovery starts clean: no stale backlog arrives.
	net.Faults().SetNodeDown(1, false)
	net.BeginRound()
	net.DeliverAll()
	if got[2] != 1 {
		t.Fatalf("stale pre-crash traffic delivered after recovery: got %d", got[2])
	}
}

func TestQueueDeadlineExpires(t *testing.T) {
	net, eps, got := faultNet(t, 2)
	size := uint64(Message{Payload: make([]byte, 10)}.WireSize())
	net.Faults().SetUploadCap(1, size) // one message per round
	net.Faults().SetQueueDeadline(1)   // one round of waiting, then useless
	net.BeginRound()
	for i := 0; i < 4; i++ {
		_ = eps[1].Send(2, 1, make([]byte, 10))
	}
	net.DeliverAll()
	if got[2] != 1 || net.Faults().Deferred() != 3 {
		t.Fatalf("round 1: delivered=%d deferred=%d, want 1/3", got[2], net.Faults().Deferred())
	}
	// Round 2: the 3 queued messages are age 1 (within deadline); one is
	// released, two stay.
	net.BeginRound()
	net.DeliverAll()
	if got[2] != 2 || net.Faults().CapExpired() != 0 {
		t.Fatalf("round 2: delivered=%d expired=%d, want 2/0", got[2], net.Faults().CapExpired())
	}
	// Round 3: the remaining two are age 2 > deadline 1 — both expire;
	// nothing is left to release.
	net.BeginRound()
	net.DeliverAll()
	if got[2] != 2 {
		t.Fatalf("round 3 delivered expired content: %d", got[2])
	}
	if net.Faults().CapExpired() != 2 {
		t.Fatalf("CapExpired = %d, want 2", net.Faults().CapExpired())
	}
	if net.Faults().Dropped() != 2 {
		t.Fatalf("expiry missing from the combined drop counter: %d", net.Faults().Dropped())
	}
	// Expired bytes never left the NIC: the sender was charged only for
	// the two messages actually released.
	if tr := net.TrafficOf(1); tr.BytesOut != 2*size {
		t.Fatalf("expired bytes charged: BytesOut=%d want %d", tr.BytesOut, 2*size)
	}
}

func TestQueuedRunDeterministic(t *testing.T) {
	// A capped, lossy run replays its deferral/expiry/drop/retransmit
	// counters and deliveries exactly under the same seed — loss is a
	// function of the message, and the release order is canonical.
	run := func() (delivered int, deferred, expired, dropped, retransmitted uint64) {
		net, eps, got := faultNet(t, 3)
		net.Faults().SetSeed(77)
		net.Faults().SetLossRate(0.3)
		size := uint64(Message{Payload: make([]byte, 10)}.WireSize())
		net.Faults().SetUploadCap(1, 2*size)
		net.Faults().SetQueueDeadline(2)
		for r := 0; r < 6; r++ {
			net.BeginRound()
			for i := 0; i < 4; i++ {
				_ = eps[1].Send(2, 1, make([]byte, 10))
				_ = eps[2].Send(3, 1, make([]byte, 10))
			}
			net.DeliverAll()
		}
		return got[2] + got[3], net.Faults().Deferred(), net.Faults().CapExpired(), net.Faults().Dropped(), net.Faults().Retransmitted()
	}
	d1, q1, x1, l1, r1 := run()
	d2, q2, x2, l2, r2 := run()
	if d1 != d2 || q1 != q2 || x1 != x2 || l1 != l2 || r1 != r2 {
		t.Fatalf("same seed diverged: %d/%d/%d/%d/%d vs %d/%d/%d/%d/%d",
			d1, q1, x1, l1, r1, d2, q2, x2, l2, r2)
	}
	if q1 == 0 || x1 == 0 || r1 == 0 {
		t.Fatalf("scenario exercised no queue pressure or loss: deferred=%d expired=%d retransmitted=%d", q1, x1, r1)
	}
}
