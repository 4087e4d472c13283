package acting

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/judicial"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/pki"
	"repro/internal/securelog"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// Tests for AcTinG's use of the shared message path: wire bytes unchanged,
// decoding canonical (so a signature checked over the received prefix is a
// signature checked over the re-encoded body), every tampered message
// dropped, and nothing a node keeps aliasing the payload it was delivered.

// sampleMessages returns one message of each AcTinG kind (unsigned).
func sampleMessages() []message {
	ids := []model.UpdateID{{Stream: 0, Seq: 4}, {Stream: 1, Seq: 9}}
	upd := update.Update{ID: ids[0], Deadline: 21, Payload: []byte("chunk"), SrcSig: []byte("src")}
	return []message{
		&proposeMsg{Round: 5, From: 1, To: 2, IDs: ids},
		&requestMsg{Round: 5, From: 2, To: 1, IDs: ids[:1]},
		&dataMsg{Round: 5, From: 1, To: 2, Updates: []update.Update{upd, {ID: ids[1]}}},
		&complaintMsg{Round: 5, From: 2, Against: 1, IDs: ids},
		&auditReqMsg{Round: 6, From: 3, SinceSeq: 17},
		&auditReplyMsg{Round: 6, From: 1, Entries: []securelog.Entry{
			{Seq: 18, Round: 5, Type: securelog.EntrySend, Peer: 2, Content: []byte("content"), Hash: [32]byte{1, 2, 3}},
			{Seq: 19, Round: 6, Type: securelog.EntryRecv, Peer: 3},
		}},
		&proposeMsg{Round: 5, From: 1, To: 2},
		&dataMsg{Round: 5, From: 1, To: 2},
		&auditReplyMsg{Round: 6, From: 1},
	}
}

// sigOf is a decoded message's signature.
func sigOf(m message) []byte { return *m.head().sig }

// remarshal re-encodes a decoded message: body plus signature field.
func remarshal(m message) []byte {
	w := wire.NewWriter()
	m.layout(w.Codec())
	w.Bytes(sigOf(m))
	return w.Finish()
}

var decoders = map[string]func([]byte) (message, error){
	"propose":    func(b []byte) (message, error) { return decode[proposeMsg](b, new(auditScratch)) },
	"request":    func(b []byte) (message, error) { return decode[requestMsg](b, new(auditScratch)) },
	"data":       func(b []byte) (message, error) { return decode[dataMsg](b, new(auditScratch)) },
	"complaint":  func(b []byte) (message, error) { return decode[complaintMsg](b, new(auditScratch)) },
	"auditReq":   func(b []byte) (message, error) { return decode[auditReqMsg](b, new(auditScratch)) },
	"auditReply": func(b []byte) (message, error) { return decodeReply(b, new(auditScratch)) },
}

func goldenIdentity(t testing.TB) pki.Identity {
	t.Helper()
	id, err := pki.NewFastSuite().NewDeterministicIdentity(7, 2016)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// seal is signAndSend's encoding without the send.
func seal(t testing.TB, m message, id pki.Identity) []byte {
	t.Helper()
	w := wire.NewWriter()
	m.layout(w.Codec())
	if err := w.Sign(id); err != nil {
		t.Fatal(err)
	}
	return w.Finish()
}

// TestGoldenWireBytes: every AcTinG kind, signed by a fixed deterministic
// identity, encodes to the bytes recorded from the commit before the
// shared message path (testdata/golden_wire.txt, sampleMessages order).
func TestGoldenWireBytes(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_wire.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Split(strings.TrimSpace(string(raw)), "\n")
	samples := sampleMessages()
	if len(golden) != len(samples) {
		t.Fatalf("%d golden lines for %d samples", len(golden), len(samples))
	}
	id := goldenIdentity(t)
	for i, m := range samples {
		if got := fmt.Sprintf("%x", seal(t, m, id)); got != golden[i] {
			t.Errorf("sample %d (%T) encodes differently from the recorded bytes:\n got %s\nwant %s", i, m, got, golden[i])
		}
	}
}

// TestDecodeIsCanonical: whatever a decoder accepts — the valid encodings
// and every single-byte corruption of them — re-marshals to the identical
// bytes. The audit reply from a log base postdates the golden recording,
// so it is checked here only.
func TestDecodeIsCanonical(t *testing.T) {
	id := goldenIdentity(t)
	baseReply := &auditReplyMsg{Round: 9, From: 1, Base: &logBase{Seq: 17, Round: 5, Hash: [32]byte{9, 8, 7}},
		Entries: []securelog.Entry{{Seq: 18, Round: 6, Type: securelog.EntrySend, Peer: 2, Content: []byte("c")}}}
	for _, m := range append(sampleMessages(), baseReply) {
		enc := seal(t, m, id)
		accepted := false
		check := func(b []byte) {
			for name, dec := range decoders {
				got, err := dec(b)
				if err != nil {
					continue
				}
				if bytes.Equal(b, enc) {
					accepted = true
				}
				if re := remarshal(got); !bytes.Equal(re, b) {
					t.Fatalf("%s accepted %x but re-marshals it as %x", name, b, re)
				}
			}
		}
		check(enc)
		if !accepted {
			t.Fatalf("%T: no decoder accepted a valid encoding", m)
		}
		for i := range enc {
			for _, flip := range []byte{0x01, 0x80, 0xFF} {
				mut := bytes.Clone(enc)
				mut[i] ^= flip
				check(mut)
			}
		}
	}
}

// FuzzDecodeIsCanonical: any input an AcTinG decoder accepts re-marshals
// to the identical bytes, starting from the signed sample messages and an
// audit reply from a log base.
func FuzzDecodeIsCanonical(f *testing.F) {
	id := goldenIdentity(f)
	baseReply := &auditReplyMsg{Round: 9, From: 1, Base: &logBase{Seq: 17, Round: 5, Hash: [32]byte{9, 8, 7}}}
	for _, m := range append(sampleMessages(), baseReply) {
		f.Add(seal(f, m, id))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for name, dec := range decoders {
			if got, err := dec(b); err == nil {
				if re := remarshal(got); !bytes.Equal(re, b) {
					t.Fatalf("%s accepted %x but re-marshals it as %x", name, b, re)
				}
			}
		}
	})
}

// A list count the message cannot hold is rejected before any list is
// sized from it: a 30-byte propose claiming 2²⁰ identifiers costs nothing.
func TestHostileListCountRejected(t *testing.T) {
	w := wire.NewWriter()
	(&proposeMsg{Round: 1, From: 1, To: 2}).layout(w.Codec())
	enc := w.Finish()
	enc = append(enc[:len(enc)-4], 0x00, 0x10, 0x00, 0x00) // count = 2^20
	enc = append(enc, 0, 0, 0, 0)                          // empty signature
	s := new(auditScratch)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := decode[proposeMsg](enc, s); err == nil {
			t.Fatal("hostile count accepted")
		}
	})
	if allocs > 2 {
		t.Fatalf("rejecting a hostile count took %.0f allocations", allocs)
	}
}

// cluster is a small AcTinG session over MemNet with a hook around every
// delivery.
type cluster struct {
	suite    *pki.FastSuite
	net      *transport.MemNet
	engine   *sim.Engine
	nodes    map[model.NodeID]*Node
	mu       sync.Mutex // the engine's shards share the verdict sink
	verdicts []judicial.Verdict
	// deliver replaces the plain handler call when set.
	deliver func(n *Node, m transport.Message)
}

// newCluster builds the session on an engine with the given worker count.
func newCluster(t testing.TB, size, workers int, intern *update.Interner, behaviors map[model.NodeID]Behavior) *cluster {
	t.Helper()
	c := &cluster{suite: pki.NewFastSuite(), net: transport.NewMemNet(), nodes: map[model.NodeID]*Node{}}
	ids := make([]model.NodeID, size)
	for i := range ids {
		ids[i] = model.NodeID(i + 1)
	}
	dir, err := membership.New(ids, membership.Config{Seed: 7, Fanout: 3, Monitors: 3})
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
			Source: 1, Intern: intern, AuditPeriod: 3, Behavior: behaviors[id],
			Verdicts: func(v judicial.Verdict) {
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
	gen, err := update.NewGenerator(source, 64, model.PlayoutDelayRounds)
	if err != nil {
		t.Fatal(err)
	}
	c.engine.OnRoundStart(func(r model.Round) {
		us, err := gen.Emit(r, 2)
		if err != nil {
			t.Fatal(err)
		}
		c.nodes[1].InjectUpdates(us)
	})
	return c
}

// footprint summarises everything a handler may change on acceptance.
func (c *cluster) footprint(n *Node) string {
	complaints, waiting := 0, 0
	for _, st := range n.audits {
		complaints += len(st.complaints)
		if st.waiting {
			waiting++
		}
	}
	return fmt.Sprint(n.log.Len(), n.store.Len(), len(n.freshNext), len(n.requestedFrom),
		n.stats, complaints, waiting, len(c.verdicts), c.net.PendingCount())
}

// TestTamperedMessagesDropped: for the first message of every kind seen in
// a live session, each single-byte corruption of body or signature is
// dropped by the handler exactly as before the shared message path —
// silently, before any log entry, store change, reply or verdict — and the
// untouched message is then accepted.
func TestTamperedMessagesDropped(t *testing.T) {
	c := newCluster(t, 16, 0, nil, map[model.NodeID]Behavior{5: {FreeRide: true}})
	swept := map[uint8]bool{}
	c.deliver = func(n *Node, m transport.Message) {
		if !swept[m.Kind] {
			swept[m.Kind] = true
			before := c.footprint(n)
			for i := range m.Payload {
				mut := m
				mut.Payload = bytes.Clone(m.Payload)
				mut.Payload[i] ^= 0x01
				n.HandleMessage(mut)
				if after := c.footprint(n); after != before {
					t.Fatalf("kind %d: flipping byte %d of %d was not dropped (%s -> %s)",
						m.Kind, i, len(m.Payload), before, after)
				}
			}
			n.HandleMessage(m)
			if c.footprint(n) == before {
				t.Fatalf("kind %d: the untouched message had no effect either", m.Kind)
			}
			return
		}
		n.HandleMessage(m)
	}
	c.engine.Run(8)
	for k := kindPropose; k <= kindAuditReply; k++ {
		if !swept[k] {
			t.Errorf("kind %d never seen", k)
		}
	}
}

// TestRetainedStateSurvivesPayloadOverwrite: a handler is lent its
// payload and decoded messages alias it, so everything a node keeps must
// have been cloned at its retention point (the update store, the secure
// log). Delivered payloads are shared with whoever else holds them, so
// each handler is handed a private copy that is overwritten as soon as it
// returns, and wire poisons every pooled buffer on release (pooled bytes
// handed to Endpoint.Send would arrive as garbage). Nothing may change:
// same deliveries, clean audits, intact stores and log chains — inline
// and on four workers.
func TestRetainedStateSurvivesPayloadOverwrite(t *testing.T) {
	for name, intern := range map[string]func() *update.Interner{
		"private":  func() *update.Interner { return nil },
		"interned": update.NewInterner,
	} {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{0, 4} {
				checkSurvivesOverwrite(t, workers, intern())
			}
		})
	}
}

func checkSurvivesOverwrite(t *testing.T, workers int, intern *update.Interner) {
	defer wire.PoisonReleased()()
	c := newCluster(t, 12, workers, intern, nil)
	c.deliver = func(n *Node, m transport.Message) {
		m.Payload = bytes.Clone(m.Payload)
		n.HandleMessage(m)
		for i := range m.Payload {
			m.Payload[i] = 0xAA
		}
	}
	c.engine.Run(12)
	if len(c.verdicts) != 0 {
		t.Fatalf("audits of scribbled-over sessions raised verdicts: %v", c.verdicts)
	}
	w := wire.NewWriter()
	for id, n := range c.nodes {
		if n.store.Len() == 0 {
			t.Fatalf("node %v stored nothing", id)
		}
		if got := n.Stats().UpdatesDelivered; got == 0 {
			t.Fatalf("node %v delivered nothing", id)
		}
		for r := model.Round(1); r <= 12; r++ {
			for _, e := range n.store.ReceivedIn(r) {
				if c.suite.Verify(1, w.Canonical(&e.Update), e.Update.SrcSig) != nil {
					t.Fatalf("node %v: stored update %v no longer verifies", id, e.Update.ID)
				}
			}
		}
		if err := securelog.VerifyChain(n.log.Base(), n.log.BaseHash(), n.log.Since(n.log.Base())); err != nil {
			t.Fatalf("node %v: %v", id, err)
		}
	}
}

// TestSignAndSendAllocations: one encoding in a pooled buffer, signed in
// place — sending a 40-update data message to a MemNet endpoint, whose
// Send keeps what it is given, allocates at most the send-arena chunk its
// one copy goes into (here, where nothing is delivered, no chunk is ever
// recycled) plus amortised queue growth, not three encodings of it. A TCP
// endpoint copies the frame into its connection's batch buffer, so there
// the pooled buffer is lent as it is and, once the connection is up and
// the buffer has grown, sending allocates nothing. (The race detector
// bypasses sync.Pool; the race job runs -short.)
func TestSignAndSendAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts need the pool")
	}
	c := newCluster(t, 5, 0, nil, nil)
	n := c.nodes[2]
	msg := &dataMsg{Round: 1, From: 2, To: 3}
	for i := 0; i < 40; i++ {
		msg.Updates = append(msg.Updates, update.Update{
			ID: model.UpdateID{Seq: uint64(i)}, Deadline: 20,
			Payload: make([]byte, model.UpdateBytes), SrcSig: make([]byte, 256),
		})
	}
	if got := testing.AllocsPerRun(100, func() { n.signAndSend(3, kindData, msg) }); got > 3 {
		t.Fatalf("MemNet: sign-and-send of a 40-update data message: %.1f allocs, budget 3", got)
	}

	t.Run("TCP", func(t *testing.T) {
		// Node 3 is a plain listener that reads and discards, so the
		// count is the sender's alone.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			_, _ = io.Copy(io.Discard, conn)
		}()
		tn := transport.NewTCPNet(map[model.NodeID]string{3: ln.Addr().String()})
		tn.SetDynamic("127.0.0.1")
		defer tn.Close()
		ep, err := tn.Register(2, func(transport.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		saved := n.cfg.Endpoint
		n.cfg.Endpoint = ep
		defer func() { n.cfg.Endpoint = saved }()
		send := func() { n.signAndSend(3, kindData, msg) }
		for range 16 { // dial, and grow the batch buffer past an overflow flush
			send()
		}
		tn.FlushAll()
		if got := testing.AllocsPerRun(100, send); got != 0 {
			t.Fatalf("TCP: sign-and-send of a 40-update data message: %.1f allocs, want 0", got)
		}
	})
}
