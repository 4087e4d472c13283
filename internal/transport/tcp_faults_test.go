package transport

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

// These tests are the fault-parity gate for the extracted fault plane:
// the same scripted timeline driven through MemNet (merge-point
// application) and TCPNet (wire-path application) must produce matching
// drop/cap counters — exactly matching where the script is deterministic
// (partitions, caps, down nodes), within statistical tolerance where the
// PRNG is involved (loss) — plus race coverage for the dynamic roster.

// faultScript drives one scripted fault timeline over any FaultyNetwork:
// four nodes, clean rounds, a lossy phase, a partition phase, a capped
// phase (link queue builds up), a queue-expiry phase and a down phase
// that also drains the backlog, sending a fixed pattern in ascending
// sender order (so a transport that admits at send time consults the PRNG
// in the same order as MemNet's canonical merge). It returns per-node
// delivery counts.
func faultScript(t *testing.T, nw FaultyNetwork, msgsPerPair int) []int {
	t.Helper()
	const nodes = 4
	got := make([]int, nodes+1)
	var mu sync.Mutex
	eps := make([]Endpoint, nodes+1)
	for i := 1; i <= nodes; i++ {
		i := i
		ep, err := nw.Register(model.NodeID(i), func(Message) {
			mu.Lock()
			got[i]++
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	nw.Faults().SetSeed(99)

	payload := make([]byte, 10)
	capBudget := uint64(3 * Message{Payload: payload}.WireSize())
	blast := func() {
		for from := 1; from <= nodes; from++ {
			for to := 1; to <= nodes; to++ {
				if from == to {
					continue
				}
				for k := 0; k < msgsPerPair; k++ {
					_ = eps[from].Send(model.NodeID(to), 1, payload)
				}
			}
		}
	}
	round := func() {
		nw.BeginRound()
		blast()
		nw.DeliverAll()
	}

	// Clean rounds.
	round()
	round()
	// Lossy phase.
	nw.Faults().SetLossRate(0.4)
	for i := 0; i < 4; i++ {
		round()
	}
	nw.Faults().SetLossRate(0)
	// Partition phase: {1,2} vs implicit {3,4}.
	nw.Faults().SetPartition([]model.NodeID{1, 2})
	round()
	round()
	nw.Faults().Heal()
	// Capped phase: node 1 may send 3 messages per round; the rest of its
	// 30 per-round sends queue at the NIC and carry over.
	nw.Faults().SetUploadCap(1, capBudget)
	round()
	round()
	// Expiry phase: a 1-round queue deadline ages out the oldest backlog.
	nw.Faults().SetQueueDeadline(1)
	round()
	// Down phase: node 4 crashes; lifting the cap (and the deadline)
	// releases the surviving backlog in one burst.
	nw.Faults().SetUploadCap(1, 0)
	nw.Faults().SetQueueDeadline(0)
	nw.Faults().SetNodeDown(4, true)
	round()
	return got
}

func TestTCPFaultCountersMatchMemNet(t *testing.T) {
	const msgsPerPair = 10

	mem := NewMemNet()
	memGot := faultScript(t, mem, msgsPerPair)

	tn := NewTCPNet(nil)
	tn.SetDynamic("127.0.0.1")
	tn.SetStepped(5 * time.Second)
	defer func() { _ = tn.Close() }()
	tcpGot := faultScript(t, tn, msgsPerPair)

	// The lossy phase is the only PRNG-driven part: 12 pairs × 10 msgs ×
	// 4 rounds = 480 coin flips at p=0.4 (σ≈10.7). Identical send order
	// means identical flips in practice, but the assertion only demands
	// statistical agreement, which holds for any interleaving.
	lossSends := 12 * msgsPerPair * 4
	tolerance := uint64(float64(lossSends) * 0.15)
	memDrops, tcpDrops := mem.Dropped(), tn.Dropped()
	diff := memDrops - tcpDrops
	if tcpDrops > memDrops {
		diff = tcpDrops - memDrops
	}
	if diff > tolerance {
		t.Errorf("drop counters diverge beyond tolerance: mem=%d tcp=%d (tolerance %d)",
			memDrops, tcpDrops, tolerance)
	}
	// The link queue is deterministic: deferral and expiry never touch
	// the PRNG, so for the same per-sender send sequence both transports
	// must agree exactly — queue pressure is a measurement, not noise.
	if mem.Deferred() != tn.Deferred() {
		t.Errorf("deferral counters diverge: mem=%d tcp=%d", mem.Deferred(), tn.Deferred())
	}
	if mem.CapExpired() != tn.CapExpired() {
		t.Errorf("expiry counters diverge: mem=%d tcp=%d", mem.CapExpired(), tn.CapExpired())
	}
	// Everything queued was eventually released or expired: the backlog
	// fully drains once the cap lifts.
	if d := mem.Faults().QueueDepth(); d != 0 {
		t.Errorf("mem queue depth %d after the uncapped drain, want 0", d)
	}
	if d := tn.Faults().QueueDepth(); d != 0 {
		t.Errorf("tcp queue depth %d after the uncapped drain, want 0", d)
	}
	// Per-node deliveries within the same tolerance.
	for i := 1; i < len(memGot); i++ {
		d := memGot[i] - tcpGot[i]
		if d < 0 {
			d = -d
		}
		if uint64(d) > tolerance {
			t.Errorf("node %d deliveries diverge: mem=%d tcp=%d", i, memGot[i], tcpGot[i])
		}
	}
	if memDrops == 0 || mem.Deferred() == 0 || mem.CapExpired() == 0 {
		t.Fatalf("script exercised no faults: dropped=%d deferred=%d expired=%d",
			memDrops, mem.Deferred(), mem.CapExpired())
	}
}

// TestTCPSteppedDeliveryFollowsCascade: in stepped mode DeliverAll must
// run handlers on the calling goroutine and follow send cascades to
// quiescence — the round engine's delivery contract.
func TestTCPSteppedDeliveryFollowsCascade(t *testing.T) {
	tn := NewTCPNet(nil)
	tn.SetDynamic("127.0.0.1")
	tn.SetStepped(5 * time.Second)
	defer func() { _ = tn.Close() }()

	var relayed, final atomic.Int64
	var ep2 Endpoint
	ep1, err := tn.Register(1, func(Message) { final.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	ep2, err = tn.Register(2, func(m Message) {
		// Unsynchronised handler state is safe: stepped delivery is
		// single-threaded.
		relayed.Add(1)
		_ = ep2.Send(1, 2, bytes.Clone(m.Payload))
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 25
	for i := 0; i < n; i++ {
		if err := ep1.Send(2, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	delivered := tn.DeliverAll()
	if relayed.Load() != n || final.Load() != n {
		t.Fatalf("cascade incomplete: relayed=%d final=%d want %d", relayed.Load(), final.Load(), n)
	}
	if delivered != 2*n {
		t.Fatalf("DeliverAll counted %d deliveries, want %d", delivered, 2*n)
	}
}

// TestTCPDynamicRosterJoinLeave: endpoints register against no address
// book (ephemeral listens), exchange traffic, and deregister mid-run —
// the churn path a scripted TCP session exercises.
func TestTCPDynamicRosterJoinLeave(t *testing.T) {
	tn := NewTCPNet(nil)
	tn.SetDynamic("127.0.0.1")
	tn.SetStepped(5 * time.Second)
	defer func() { _ = tn.Close() }()

	var got atomic.Int64
	ep1, err := tn.Register(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Register(2, func(Message) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := ep1.Send(2, 1, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	tn.DeliverAll()
	if got.Load() != 1 {
		t.Fatalf("dynamic endpoint got %d messages, want 1", got.Load())
	}

	if !tn.Unregister(2) {
		t.Fatal("Unregister(2) reported not registered")
	}
	if tn.Unregister(2) {
		t.Fatal("second Unregister(2) reported registered")
	}
	// The departed node's listener is gone: a fresh dial must fail, and
	// queued deliveries to it are discarded (handler resolution at drain).
	_ = ep1.Send(2, 1, []byte("after"))
	tn.DeliverAll()
	if got.Load() != 1 {
		t.Fatalf("departed endpoint received traffic: %d", got.Load())
	}

	// A later joiner under a fresh id comes up and is reachable.
	if _, err := tn.Register(3, func(Message) { got.Add(100) }); err != nil {
		t.Fatal(err)
	}
	if err := ep1.Send(3, 1, []byte("join")); err != nil {
		t.Fatal(err)
	}
	tn.DeliverAll()
	if got.Load() != 101 {
		t.Fatalf("joiner unreachable: counter %d, want 101", got.Load())
	}
}

// TestTCPDynamicRosterRace hammers register/deregister concurrently with
// senders — the -race tripwire for the dynamic roster path.
func TestTCPDynamicRosterRace(t *testing.T) {
	tn := NewTCPNet(nil)
	tn.SetDynamic("127.0.0.1")
	defer func() { _ = tn.Close() }()

	ep1, err := tn.Register(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}

	const churners = 4
	iters := 20
	if testing.Short() {
		iters = 8
	}
	var senders, flappers sync.WaitGroup
	stop := make(chan struct{})
	// Senders blast at ids that flap in and out of the roster.
	for s := 0; s < 2; s++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for id := 10; id < 10+churners; id++ {
					_ = ep1.Send(model.NodeID(id), 1, []byte("x")) // errors expected
				}
			}
		}()
	}
	for c := 0; c < churners; c++ {
		id := model.NodeID(10 + c)
		flappers.Add(1)
		go func() {
			defer flappers.Done()
			for i := 0; i < iters; i++ {
				ep, err := tn.Register(id, func(Message) {})
				if err != nil {
					t.Errorf("register %v: %v", id, err)
					return
				}
				_ = ep.Send(1, 1, []byte("up"))
				if !tn.Unregister(id) {
					t.Errorf("unregister %v: not registered", id)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { flappers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("dynamic roster churn deadlocked")
	}
	close(stop)
	senders.Wait()
	_ = fmt.Sprintf("%d", tn.Dropped()) // counters remain readable under churn
}
