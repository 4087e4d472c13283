package transport

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// These tests are the fault-parity gate for the fault plane: the same
// scripted timeline driven through MemNet (merge-point application) and
// TCPNet (wire-path application) must produce exactly the same
// retransmit, drop and cap counters, deterministic obs snapshot, traffic
// ledger and deliveries — loss included, since it is decided by the
// message — plus race coverage for the dynamic roster.

// faultScript drives one scripted fault timeline over any FaultyNetwork:
// four nodes, clean rounds, a lossy phase at lossRate (skipped at 0), a
// partition phase, a capped phase (link queue builds up), a queue-expiry
// phase and a down phase that also drains the backlog, sending a fixed
// pattern, with the plane instrumented into reg. It returns per-node
// delivery counts.
func faultScript(t *testing.T, nw FaultyNetwork, reg *obs.Registry, msgsPerPair int, lossRate float64) []int {
	t.Helper()
	const nodes = 4
	nw.Faults().Instrument(reg, nil)
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
	if lossRate > 0 {
		nw.Faults().SetLossRate(lossRate)
		for i := 0; i < 4; i++ {
			round()
		}
		nw.Faults().SetLossRate(0)
	}
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

// runFaultScript runs faultScript once on a MemNet and once on a stepped
// dynamic-roster TCPNet and returns both networks, their obs registries and
// their per-node delivery counts.
func runFaultScript(t *testing.T, msgsPerPair int, lossRate float64) (mem *MemNet, tn *TCPNet, memReg, tcpReg *obs.Registry, memGot, tcpGot []int) {
	t.Helper()
	memReg = obs.NewRegistry()
	mem = NewMemNet()
	memGot = faultScript(t, mem, memReg, msgsPerPair, lossRate)

	tcpReg = obs.NewRegistry()
	tn = NewTCPNet(nil)
	tn.SetDynamic("127.0.0.1")
	tn.SetStepped(5 * time.Second)
	t.Cleanup(func() { _ = tn.Close() })
	tcpGot = faultScript(t, tn, tcpReg, msgsPerPair, lossRate)
	return mem, tn, memReg, tcpReg, memGot, tcpGot
}

// assertFaultParity checks that both transports agree exactly on every
// fault-plane counter, per-node deliveries, per-node and total traffic
// ledgers, and the plane's deterministic-class obs snapshot.
func assertFaultParity(t *testing.T, mem *MemNet, tn *TCPNet, memReg, tcpReg *obs.Registry, memGot, tcpGot []int) {
	t.Helper()
	if m, c := mem.Faults().Retransmitted(), tn.Faults().Retransmitted(); m != c {
		t.Errorf("retransmit counters diverge: mem=%d tcp=%d", m, c)
	}
	if m, c := mem.Faults().Dropped(), tn.Faults().Dropped(); m != c {
		t.Errorf("drop counters diverge: mem=%d tcp=%d", m, c)
	}
	// The link queue is deterministic: for the same per-sender send
	// sequence both transports must agree exactly — queue pressure is a
	// measurement, not noise.
	if mem.Faults().Deferred() != tn.Faults().Deferred() {
		t.Errorf("deferral counters diverge: mem=%d tcp=%d", mem.Faults().Deferred(), tn.Faults().Deferred())
	}
	if mem.Faults().CapExpired() != tn.Faults().CapExpired() {
		t.Errorf("expiry counters diverge: mem=%d tcp=%d", mem.Faults().CapExpired(), tn.Faults().CapExpired())
	}
	// Everything queued was eventually released or expired: the backlog
	// fully drains once the cap lifts.
	if d := mem.Faults().QueueDepth(); d != 0 {
		t.Errorf("mem queue depth %d after the uncapped drain, want 0", d)
	}
	if d := tn.Faults().QueueDepth(); d != 0 {
		t.Errorf("tcp queue depth %d after the uncapped drain, want 0", d)
	}
	for i := 1; i < len(memGot); i++ {
		if memGot[i] != tcpGot[i] {
			t.Errorf("node %d deliveries diverge: mem=%d tcp=%d", i, memGot[i], tcpGot[i])
		}
	}
	// Both transports charge through the same plane, so the per-node
	// ledgers every bandwidth number is read from agree too, and so do the
	// plane's deterministic-class obs counters.
	for id := model.NodeID(1); id < model.NodeID(len(memGot)); id++ {
		if m, c := mem.TrafficOf(id), tn.TrafficOf(id); m != c {
			t.Errorf("node %v ledger diverges: mem=%+v tcp=%+v", id, m, c)
		}
	}
	if m, c := mem.TotalTraffic(), tn.TotalTraffic(); m != c {
		t.Errorf("total traffic diverges: mem=%+v tcp=%+v", m, c)
	}
	if m, c := memReg.Snapshot().DeterministicText(), tcpReg.Snapshot().DeterministicText(); m != c {
		t.Errorf("deterministic obs snapshots diverge across transports\nmem:\n%s\ntcp:\n%s", m, c)
	}
}

func TestTCPFaultCountersMatchMemNet(t *testing.T) {
	mem, tn, memReg, tcpReg, memGot, tcpGot := runFaultScript(t, 10, 0.4)
	assertFaultParity(t, mem, tn, memReg, tcpReg, memGot, tcpGot)
	f := mem.Faults()
	if f.Retransmitted() == 0 || f.Dropped() == 0 || f.Deferred() == 0 || f.CapExpired() == 0 {
		t.Fatalf("script exercised no faults: retransmitted=%d dropped=%d deferred=%d expired=%d",
			f.Retransmitted(), f.Dropped(), f.Deferred(), f.CapExpired())
	}
}

// TestObsFaultCountersMatchAcrossTransports: the same script with the
// lossy phase left out — partitions, caps, queue expiry and a down node
// only — keeps the obs snapshot, ledgers and deliveries identical across
// transports, and retransmits nothing on either.
func TestObsFaultCountersMatchAcrossTransports(t *testing.T) {
	mem, tn, memReg, tcpReg, memGot, tcpGot := runFaultScript(t, 10, 0)
	assertFaultParity(t, mem, tn, memReg, tcpReg, memGot, tcpGot)
	f := mem.Faults()
	if f.Retransmitted() != 0 || tn.Faults().Retransmitted() != 0 {
		t.Errorf("loss-free script retransmitted: mem=%d tcp=%d", f.Retransmitted(), tn.Faults().Retransmitted())
	}
	if f.Dropped() == 0 || f.Deferred() == 0 || f.CapExpired() == 0 {
		t.Fatalf("script exercised no faults: dropped=%d deferred=%d expired=%d",
			f.Dropped(), f.Deferred(), f.CapExpired())
	}
}

// TestTCPReleasedBacklogChargedAfterRoundTop: on both transports the
// backlog a round boundary releases is charged when the round's traffic
// starts — MemNet's next merge, TCPNet's first Send or drain — not inside
// BeginRound, so a hook that reads the ledger at the round top (an epoch
// mark) sees the previous round's bytes only; and it leaves ahead of the
// round's fresh send.
func TestTCPReleasedBacklogChargedAfterRoundTop(t *testing.T) {
	tn := NewTCPNet(nil)
	tn.SetDynamic("127.0.0.1")
	tn.SetStepped(5 * time.Second)
	defer func() { _ = tn.Close() }()
	for _, nw := range []FaultyNetwork{NewMemNet(), tn} {
		var order []byte
		ep1, err := nw.Register(1, func(Message) {})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nw.Register(2, func(m Message) { order = append(order, m.Payload[0]) }); err != nil {
			t.Fatal(err)
		}
		size := uint64(Message{Payload: []byte{0}}.WireSize())
		nw.Faults().SetUploadCap(1, size)
		nw.BeginRound()
		_ = ep1.Send(2, 1, []byte{1})
		_ = ep1.Send(2, 1, []byte{2}) // over budget: queued
		nw.DeliverAll()
		nw.BeginRound()
		if out := nw.TrafficOf(1).BytesOut; out != size {
			t.Errorf("%s: %d B charged at the round top, want %d (the released message not yet)", nw.Name(), out, size)
		}
		nw.Faults().SetUploadCap(1, 0)
		_ = ep1.Send(2, 1, []byte{3})
		nw.DeliverAll()
		if out := nw.TrafficOf(1).BytesOut; out != 3*size {
			t.Errorf("%s: %d B charged after the round's traffic, want %d", nw.Name(), out, 3*size)
		}
		if string(order) != "\x01\x02\x03" {
			t.Errorf("%s: delivery order %v, want the released message ahead of the fresh one", nw.Name(), order)
		}
	}
}

// TestTCPSteppedDeliveryFollowsCascade: DeliverAll must
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
	// The departed id is retracted from the book, so a send to it fails
	// before it reaches the fault plane; the listener it shared with node 1
	// stays up, and a frame to it still queued or in flight would be
	// discarded at drain (handler resolution).
	if err := ep1.Send(2, 1, []byte("after")); err == nil {
		t.Fatal("a send to the departed id was accepted")
	}
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
// senders and a draining driver — the -race tripwire for the dynamic
// roster path.
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
	// The driver flushes and drains in short paced slices throughout.
	senders.Add(1)
	go func() {
		defer senders.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tn.DeliverUntil(time.Now().Add(time.Millisecond))
		}
	}()
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
	_ = fmt.Sprintf("%d", tn.Faults().Dropped()) // counters remain readable under churn
}
