package rac

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/pki"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// Tests for RAC's use of the shared message path (see the acting package's
// message_path_test.go for the same properties on AcTinG).

func sampleSlots() []*slotMsg {
	upd := update.Update{ID: model.UpdateID{Seq: 3}, Deadline: 14, Payload: []byte("chunk"), SrcSig: []byte("src")}
	return []*slotMsg{
		{Round: 4, Origin: 2, Seq: 0, Real: true, Content: encodeUpdate(&upd)},
		{Round: 4, Origin: 3, Seq: 1, Content: make([]byte, 16)},
		{Round: 4, Origin: 3},
	}
}

func seal(t *testing.T, m *slotMsg, id pki.Identity) []byte {
	t.Helper()
	w := wire.NewWriter()
	m.body(w)
	if err := w.Sign(id); err != nil {
		t.Fatal(err)
	}
	return w.Finish()
}

func remarshal(m *slotMsg) []byte {
	w := wire.NewWriter()
	m.body(w)
	w.Bytes(m.Sig)
	return w.Finish()
}

// TestGoldenWireBytes: slots signed by a fixed deterministic identity
// encode to the bytes recorded from the commit before the shared message
// path (testdata/golden_wire.txt, sampleSlots order).
func TestGoldenWireBytes(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_wire.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Split(strings.TrimSpace(string(raw)), "\n")
	id, err := pki.NewFastSuite().NewDeterministicIdentity(7, 2016)
	if err != nil {
		t.Fatal(err)
	}
	samples := sampleSlots()
	if len(golden) != len(samples) {
		t.Fatalf("%d golden lines for %d samples", len(golden), len(samples))
	}
	for i, m := range samples {
		if got := fmt.Sprintf("%x", seal(t, m, id)); got != golden[i] {
			t.Errorf("slot %d encodes differently from the recorded bytes:\n got %s\nwant %s", i, got, golden[i])
		}
	}
}

// TestDecodeIsCanonical: whatever the slot decoder (and the update decoder
// inside a real slot) accepts re-marshals to the identical bytes.
func TestDecodeIsCanonical(t *testing.T) {
	id, _ := pki.NewFastSuite().NewDeterministicIdentity(7, 2016)
	for _, m := range sampleSlots() {
		enc := seal(t, m, id)
		if _, err := unmarshalSlot(enc); err != nil {
			t.Fatal(err)
		}
		for i := -1; i < len(enc); i++ {
			mut := bytes.Clone(enc)
			if i >= 0 {
				mut[i] ^= 0x01
			}
			got, err := unmarshalSlot(mut)
			if err != nil {
				continue
			}
			if re := remarshal(got); !bytes.Equal(re, mut) {
				t.Fatalf("slot decoder accepted %x but re-marshals it as %x", mut, re)
			}
			if u, err := decodeUpdate(got.Content); err == nil && !bytes.Equal(encodeUpdate(&u), got.Content) {
				t.Fatalf("update decoder accepted %x non-canonically", got.Content)
			}
		}
	}
}

type cluster struct {
	suite    *pki.FastSuite
	net      *transport.MemNet
	engine   *sim.Engine
	nodes    map[model.NodeID]*Node
	mu       sync.Mutex // the engine's shards share the verdict sink
	verdicts []Verdict
	deliver  func(n *Node, m transport.Message)
}

// newCluster builds the session on an engine with the given worker count.
func newCluster(t *testing.T, size, workers int) *cluster {
	t.Helper()
	c := &cluster{suite: pki.NewFastSuite(), net: transport.NewMemNet(), nodes: map[model.NodeID]*Node{}}
	ids := make([]model.NodeID, size)
	for i := range ids {
		ids[i] = model.NodeID(i + 1)
	}
	dir, err := membership.New(ids, membership.Config{Seed: 3, Fanout: 3, Monitors: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.engine, err = sim.NewEngine(c.net, workers); err != nil {
		t.Fatal(err)
	}
	var source pki.Identity
	for _, id := range ids {
		identity, err := c.suite.NewDeterministicIdentity(id, 99)
		if err != nil {
			t.Fatal(err)
		}
		if id == 1 {
			source = identity
		}
		var node *Node
		ep, err := c.net.Register(id, func(m transport.Message) {
			if c.deliver != nil {
				c.deliver(node, m)
			} else {
				node.HandleMessage(m)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		node, err = NewNode(Config{
			ID: id, Suite: c.suite, Identity: identity, Directory: dir, Endpoint: ep,
			Sources: []model.NodeID{1}, SlotBytes: 64,
			Verdicts: func(v Verdict) {
				c.mu.Lock()
				c.verdicts = append(c.verdicts, v)
				c.mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.nodes[id] = node
		c.engine.Add(node)
	}
	gen, err := update.NewGenerator(0, source, 48, model.PlayoutDelayRounds)
	if err != nil {
		t.Fatal(err)
	}
	c.engine.OnRoundStart(func(r model.Round) {
		us, err := gen.Emit(r, 1)
		if err != nil {
			t.Fatal(err)
		}
		c.nodes[1].InjectUpdates(us)
	})
	return c
}

func (c *cluster) footprint(n *Node) string {
	seen := 0
	for _, k := range n.seenOrigins {
		seen += k
	}
	return fmt.Sprint(seen, n.store.Len(), n.stats, len(c.verdicts), c.net.PendingCount())
}

// TestTamperedSlotsDropped: each single-byte corruption of a real and of a
// cover slot (body or signature) is dropped silently — not counted, not
// stored, not relayed — and the untouched slot is then accepted.
func TestTamperedSlotsDropped(t *testing.T) {
	c := newCluster(t, 6, 0)
	swept := map[bool]bool{}
	c.deliver = func(n *Node, m transport.Message) {
		slot, err := unmarshalSlot(m.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if !swept[slot.Real] {
			swept[slot.Real] = true
			before := c.footprint(n)
			for i := range m.Payload {
				mut := m
				mut.Payload = bytes.Clone(m.Payload)
				mut.Payload[i] ^= 0x01
				n.HandleMessage(mut)
				if after := c.footprint(n); after != before {
					t.Fatalf("real=%v: flipping byte %d of %d was not dropped (%s -> %s)",
						slot.Real, i, len(m.Payload), before, after)
				}
			}
			n.HandleMessage(m)
			if c.footprint(n) == before {
				t.Fatalf("real=%v: the untouched slot had no effect either", slot.Real)
			}
			return
		}
		n.HandleMessage(m)
	}
	c.engine.Run(3)
	if !swept[true] || !swept[false] {
		t.Fatalf("swept real=%v cover=%v", swept[true], swept[false])
	}
}

// TestStoreSurvivesPayloadOverwrite: a handler is lent its payload, a
// decoded slot aliases it, the store keeps a clone and a relay sends one.
// Each handler is handed a private copy of the (shared) payload that is
// overwritten once it returns, and wire poisons every pooled buffer on
// release; every stored update stays verifiable and the ring keeps
// turning — inline and on four workers.
func TestStoreSurvivesPayloadOverwrite(t *testing.T) {
	for _, workers := range []int{0, 4} {
		checkSurvivesOverwrite(t, workers)
	}
}

func checkSurvivesOverwrite(t *testing.T, workers int) {
	defer wire.PoisonReleased()()
	c := newCluster(t, 6, workers)
	c.deliver = func(n *Node, m transport.Message) {
		m.Payload = bytes.Clone(m.Payload)
		n.HandleMessage(m)
		for i := range m.Payload {
			m.Payload[i] = 0xAA
		}
	}
	c.engine.Run(4)
	for id, n := range c.nodes {
		stored := 0
		for r := model.Round(1); r <= 4; r++ {
			for _, e := range n.store.ReceivedIn(r) {
				stored++
				if c.suite.Verify(1, e.Update.CanonicalBytes(), e.Update.SrcSig) != nil {
					t.Fatalf("workers=%d: node %v: stored update %v no longer verifies", workers, id, e.Update.ID)
				}
			}
		}
		if stored == 0 {
			t.Fatalf("workers=%d: node %v stored nothing", workers, id)
		}
	}
}
