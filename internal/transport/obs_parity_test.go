package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// Cross-transport observability parity: the fault plane's obs counters
// are deterministic-class, so for a fault script that never consults the
// PRNG (partitions, caps, queue expiry, down nodes — no loss) the
// deterministic snapshot must match byte-for-byte between MemNet (merge-
// point admission) and TCPNet (wire-path admission), and so must every
// node's traffic ledger.

// deterministicFaultScript is faultScript without its lossy phase: every
// admission decision is a pure function of the send sequence, so both
// transports must count identically, not just statistically.
func deterministicFaultScript(t *testing.T, nw FaultyNetwork, reg *obs.Registry) []int {
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
	round := func() {
		nw.BeginRound()
		for from := 1; from <= nodes; from++ {
			for to := 1; to <= nodes; to++ {
				if from == to {
					continue
				}
				for k := 0; k < 10; k++ {
					_ = eps[from].Send(model.NodeID(to), 1, payload)
				}
			}
		}
		nw.DeliverAll()
	}

	round()
	round()
	// Partition phase: {1,2} vs implicit {3,4}.
	nw.Faults().SetPartition([]model.NodeID{1, 2})
	round()
	nw.Faults().Heal()
	// Capped phase: node 1 sends 3 messages per round, the rest queue.
	nw.Faults().SetUploadCap(1, capBudget)
	round()
	round()
	// Expiry phase: a 1-round deadline ages out the oldest backlog.
	nw.Faults().SetQueueDeadline(1)
	round()
	// Down phase: node 4 crashes; the lifted cap drains the backlog.
	nw.Faults().SetUploadCap(1, 0)
	nw.Faults().SetQueueDeadline(0)
	nw.Faults().SetNodeDown(4, true)
	round()
	return got
}

func TestObsFaultCountersMatchAcrossTransports(t *testing.T) {
	memReg := obs.NewRegistry()
	mem := NewMemNet()
	memGot := deterministicFaultScript(t, mem, memReg)

	tcpReg := obs.NewRegistry()
	tn := NewTCPNet(nil)
	tn.SetDynamic("127.0.0.1")
	tn.SetStepped(5 * time.Second)
	defer func() { _ = tn.Close() }()
	tcpGot := deterministicFaultScript(t, tn, tcpReg)

	// Per-node deliveries agree exactly — no PRNG anywhere in the script.
	for i := range memGot {
		if memGot[i] != tcpGot[i] {
			t.Errorf("node %d deliveries diverge: mem=%d tcp=%d", i, memGot[i], tcpGot[i])
		}
	}
	memText := memReg.Snapshot().DeterministicText()
	tcpText := tcpReg.Snapshot().DeterministicText()
	if memText != tcpText {
		t.Errorf("deterministic obs snapshots diverge across transports\nmem:\n%s\ntcp:\n%s", memText, tcpText)
	}
	// The obs counters mirror the fault plane's own counters they ride
	// beside.
	if mem.Faults().Deferred() != tn.Faults().Deferred() || mem.Faults().CapExpired() != tn.Faults().CapExpired() {
		t.Errorf("plane counters diverge: deferred mem=%d tcp=%d, expired mem=%d tcp=%d",
			mem.Faults().Deferred(), tn.Faults().Deferred(), mem.Faults().CapExpired(), tn.Faults().CapExpired())
	}
	// Both transports charge through the same plane, so the per-node
	// ledgers every bandwidth number is read from agree too.
	for i := range memGot {
		id := model.NodeID(i)
		if m, c := mem.TrafficOf(id), tn.TrafficOf(id); m != c {
			t.Errorf("node %d traffic diverges: mem=%+v tcp=%+v", i, m, c)
		}
	}
	if m, c := mem.TotalTraffic(), tn.TotalTraffic(); m != c {
		t.Errorf("total traffic diverges: mem=%+v tcp=%+v", m, c)
	}
}
