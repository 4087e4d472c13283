package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/transport"
)

// chatter is a toy protocol node: every round it sends a burst to its ring
// neighbours, and every reception below the reply depth triggers a reply —
// exercising multi-wave delivery. It records its full reception log so
// runs can be compared message-for-message.
type chatter struct {
	id    model.NodeID
	n     int
	ep    transport.Endpoint
	log   []string
	burst int
}

func (c *chatter) ID() model.NodeID { return c.id }

func (c *chatter) BeginRound(r model.Round) {
	for b := 0; b < c.burst; b++ {
		to := model.NodeID((int(c.id)+b)%c.n + 1)
		if to == c.id {
			to = model.NodeID(int(to)%c.n + 1)
		}
		_ = c.ep.Send(to, 0, []byte(fmt.Sprintf("r%d b%d from %d", r, b, c.id)))
	}
}

func (c *chatter) MidRound(model.Round)   {}
func (c *chatter) EndRound(model.Round)   {}
func (c *chatter) CloseRound(model.Round) {}

func (c *chatter) handle(m transport.Message) {
	c.log = append(c.log, fmt.Sprintf("k%d %s", m.Kind, m.Payload))
	if m.Kind < 2 {
		_ = c.ep.Send(m.From, m.Kind+1, m.Payload)
	}
}

// chatterRun is what a run leaves behind: every node's reception log and
// traffic counters, and the network's drop count.
type chatterRun struct {
	logs    map[model.NodeID][]string
	traffic map[model.NodeID]transport.Traffic
	dropped uint64
}

// runChatter runs n chatter nodes over a MemNet with 10 % loss and an
// upload cap on node 2 (merge-point cap accounting) for the given rounds
// at the given worker count.
func runChatter(t *testing.T, n, rounds, workers int, seed uint64) chatterRun {
	t.Helper()
	net := transport.NewMemNet()
	net.Faults().SetSeed(seed)
	net.Faults().SetLossRate(0.1)
	eng, err := NewEngine(net, workers)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*chatter, n)
	for i := range nodes {
		c := &chatter{id: model.NodeID(i + 1), n: n, burst: 3}
		if c.ep, err = net.Register(c.id, c.handle); err != nil {
			t.Fatal(err)
		}
		nodes[i] = c
		eng.Add(c)
	}
	net.Faults().SetUploadCap(2, 3*uint64(transport.HeaderBytes+20))
	eng.Run(rounds)
	res := chatterRun{logs: map[model.NodeID][]string{}, traffic: map[model.NodeID]transport.Traffic{}, dropped: net.Dropped()}
	for _, c := range nodes {
		res.logs[c.id], res.traffic[c.id] = c.log, net.TrafficOf(c.id)
	}
	return res
}

// TestShardedMatchesInline is the determinism invariant at engine level:
// per-node reception logs, traffic counters and drop counts at every
// worker count — loss and caps included — are identical to the inline
// run's.
func TestShardedMatchesInline(t *testing.T) {
	const n, rounds, seed = 23, 6, 99
	want := runChatter(t, n, rounds, 0, seed)
	for _, workers := range []int{1, 2, 4, 16, 64} {
		if got := runChatter(t, n, rounds, workers, seed); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: run differs from the inline one", workers)
		}
	}
}

// TestShardedRepeatable: two sharded runs with the same seed and worker
// count are identical (no scheduling leakage).
func TestShardedRepeatable(t *testing.T) {
	if a, b := runChatter(t, 17, 5, 4, 7), runChatter(t, 17, 5, 4, 7); !reflect.DeepEqual(a, b) {
		t.Error("a repeated workers=4 run differs from the first")
	}
}

// TestEngineWorkers: 0 and 1 worker step inline, a negative count selects
// GOMAXPROCS, and sharding over anything but a MemNet is refused.
func TestEngineWorkers(t *testing.T) {
	for _, tc := range []struct{ workers, want int }{{0, 1}, {1, 1}, {7, 7}, {-3, runtime.GOMAXPROCS(0)}} {
		e, err := NewEngine(transport.NewMemNet(), tc.workers)
		if err != nil || e.Workers() != tc.want {
			t.Errorf("NewEngine(workers=%d): %v, %v; want %d workers", tc.workers, e, err, tc.want)
		}
	}
	wrapped := struct{ transport.SteppedNetwork }{transport.NewMemNet()}
	if _, err := NewEngine(wrapped, 1); err != nil {
		t.Errorf("inline engine over a non-MemNet network refused: %v", err)
	}
	if _, err := NewEngine(wrapped, 2); err == nil {
		t.Error("sharded engine over a non-MemNet network accepted")
	}
}
