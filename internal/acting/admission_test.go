package acting

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/judicial"
	"repro/internal/model"
	"repro/internal/transport"
)

// Tests for admission (admit.go): the complaint rule, the complaint
// backlog, the audit reply rule, and hostile input under every kind.

// complaintAt is c's node from's signed complaint against y for ids at
// round r, as delivered to monitor m.
func (c *cluster) complaintAt(t testing.TB, from, y, m model.NodeID, r model.Round, ids ...model.UpdateID) transport.Message {
	t.Helper()
	cm := &complaintMsg{Round: r, From: from, Against: y, IDs: ids}
	return transport.Message{From: from, To: m, Kind: kindComplaint, Payload: seal(t, cm, c.nodes[from].cfg.Identity)}
}

// unserved lists the UnservedRequest verdicts against y that cite a
// complaint by from.
func (c *cluster) unserved(y, from model.NodeID) []judicial.Verdict {
	return slices.DeleteFunc(slices.Clone(c.verdicts), func(v judicial.Verdict) bool {
		return v.Accused != y || v.Kind != VerdictUnservedRequest ||
			!strings.Contains(v.Detail, fmt.Sprintf("complaint by %v ", from))
	})
}

// TestStrangerComplaintDoesNotConvict: a validly signed complaint from a
// node the accused never proposed to claims a request the accused could
// not have received, so its log cannot refute it. Its monitors drop it
// rather than convict the correct node.
func TestStrangerComplaintDoesNotConvict(t *testing.T) {
	const y, stranger, r = model.NodeID(6), model.NodeID(2), model.Round(2)
	c := newCluster(t, 16, 0, nil, nil)
	d := c.nodes[y].cfg.Directory
	monitors := d.Monitors(y, r)
	if slices.Contains(d.Successors(y, r), stranger) || slices.Contains(monitors, stranger) {
		t.Fatalf("setup: n2 is a successor %v or monitor %v of n6 at r2", d.Successors(y, r), monitors)
	}
	c.engine.Run(int(r))
	for _, m := range monitors {
		c.nodes[m].HandleMessage(c.complaintAt(t, stranger, y, m, r, model.UpdateID{Stream: 0, Seq: 1}))
	}
	c.engine.Run(4)
	if v := c.unserved(y, stranger); len(v) != 0 {
		t.Fatalf("a stranger's complaint convicted the correct n6: %v", v)
	}
	if len(c.verdicts) != 0 {
		t.Fatalf("verdicts in a correct session: %v", c.verdicts)
	}
}

// TestLateComplaintDoesNotConvict: a successor's complaint about a round
// its monitors already audited is judged against a suffix that starts after
// that round, so nothing could refute it: it is dropped. The same complaint
// arriving before the audit is judged, and convicts, since the accused
// never served what it names.
func TestLateComplaintDoesNotConvict(t *testing.T) {
	const y, succ, r = model.NodeID(6), model.NodeID(13), model.Round(2)
	never := model.UpdateID{Stream: 0, Seq: 999}
	for _, late := range []bool{false, true} {
		c := newCluster(t, 16, 0, nil, nil)
		d := c.nodes[y].cfg.Directory
		if !slices.Contains(d.Successors(y, r), succ) {
			t.Fatalf("setup: n13 is not a successor of n6 at r2: %v", d.Successors(y, r))
		}
		c.engine.Run(int(r))
		if late {
			c.engine.Run(clusterAuditPeriod - int(r)) // the audit of r3 covers r2
		}
		for _, m := range d.Monitors(y, r) {
			c.nodes[m].HandleMessage(c.complaintAt(t, succ, y, m, r, never))
		}
		c.engine.Run(6 - int(c.nodes[y].round))
		got := len(c.unserved(y, succ))
		if late && got != 0 {
			t.Fatalf("a complaint about an audited round convicted the correct n6: %v", c.unserved(y, succ))
		}
		if !late && got != 3 {
			t.Fatalf("an unrefuted complaint in time drew %d verdicts, want one per monitor: %v", got, c.verdicts)
		}
	}
}

// TestComplaintFloodHeldOnce: ten thousand copies of one valid complaint
// are held once, draw the verdicts one copy draws, and leave the heap where
// it was.
func TestComplaintFloodHeldOnce(t *testing.T) {
	const y, succ, r, copies = model.NodeID(6), model.NodeID(13), model.Round(2), 10_000
	c := newCluster(t, 16, 0, nil, nil)
	m := c.nodes[c.nodes[y].cfg.Directory.Monitors(y, r)[0]]
	c.engine.Run(int(r))
	msg := c.complaintAt(t, succ, y, m.id, r, model.UpdateID{Stream: 0, Seq: 999})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range copies {
		m.HandleMessage(msg)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if held := len(m.audits[y].complaints); held != 1 {
		t.Fatalf("%d copies of one complaint: %d held, want 1", copies, held)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<10 {
		t.Fatalf("%d copies of one complaint grew the heap by %d bytes", copies, grew)
	}
	c.engine.Run(1) // the audit of r3
	if got := c.unserved(y, succ); len(got) != 1 || got[0].Reporter != m.id {
		t.Fatalf("verdicts %v, want the one the complaint draws", got)
	}
}

// TestStaleAuditReplyIgnored: an honest audit reply replayed from the audit
// of round 3 arrives while its monitor waits on the audit of round 6 and is
// not judged as that audit's answer; the current reply is, and passes.
func TestStaleAuditReplyIgnored(t *testing.T) {
	const y = model.NodeID(6)
	c := newCluster(t, 16, 0, nil, nil)
	mon := c.nodes[y].cfg.Directory.Monitors(y, 3)[0]
	var stale transport.Message
	replayed := false
	c.deliver = func(n *Node, msg transport.Message) {
		if n.id == mon && msg.From == y && (msg.Kind == kindAuditReply || msg.Kind == kindAuditBaseReply) {
			switch n.round {
			case 3:
				stale = msg
				stale.Payload = bytes.Clone(msg.Payload)
			case 6:
				n.HandleMessage(stale)
				replayed = true
			}
		}
		n.HandleMessage(msg)
	}
	c.engine.Run(6)
	if !replayed {
		t.Fatal("setup: no reply to replay at round 6")
	}
	if len(c.verdicts) != 0 {
		t.Fatalf("a replayed audit reply drew verdicts: %v", c.verdicts)
	}
	if st := c.nodes[mon].audits[y]; st.lastRound != 6 || st.waiting {
		t.Fatalf("the audit of r6 was not judged on its own reply: last audited %v, waiting %v", st.lastRound, st.waiting)
	}
}

// TestAdmissionAllocatesOnlyTheMessage: every kind decodes through a
// generic whose layout call would put a fresh Reader on the heap, so the
// Reader lives in the pooled scratch. Refusing a propose at its signature
// allocates the message and its identifier list, as the per-kind decoder
// the rule replaced did, and nothing else.
func TestAdmissionAllocatesOnlyTheMessage(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation counts need the pool")
	}
	c := newCluster(t, 16, 0, nil, nil)
	c.engine.Run(1)
	to := c.nodes[1].cfg.Directory.Successors(1, 1)[0]
	b := seal(t, &proposeMsg{Round: 1, From: 1, To: to, IDs: []model.UpdateID{{Seq: 1}, {Seq: 2}}}, c.nodes[1].cfg.Identity)
	b[len(b)-1] ^= 1 // the signature's last byte
	msg := transport.Message{From: 1, To: to, Kind: kindPropose, Payload: b}
	if got := testing.AllocsPerRun(100, func() { c.nodes[to].HandleMessage(msg) }); got != 2 {
		t.Fatalf("refusing a propose at its signature allocates %.1f times, want 2", got)
	}
}

// countingEndpoint counts and discards what a node sends.
type countingEndpoint struct {
	id   model.NodeID
	sent int
}

func (e *countingEndpoint) NodeID() model.NodeID                   { return e.id }
func (e *countingEndpoint) Send(model.NodeID, uint8, []byte) error { e.sent++; return nil }
func (e *countingEndpoint) Lend(p []byte) []byte                   { return p }

// FuzzActingHandleMessage feeds any bytes under any AcTinG kind from any
// member to any node of a session past its first audit, with a free-rider
// drawing complaints. With sign set, whatever decodes is re-signed by the
// member it names as its sender and sent from it, so the window and role
// steps see it. Nothing may panic; an undecodable message must send and
// record nothing; and every monitor's state must stay in its window:
// complaints only about rounds after the accused's last audit and up to
// now, at most one per round and complainer, and no audit waiting once
// the round has closed.
func FuzzActingHandleMessage(f *testing.F) {
	c := newCluster(f, 16, 0, nil, map[model.NodeID]Behavior{5: {FreeRide: true}})
	type seed struct {
		kind, to uint8
		payload  []byte
	}
	var seeds []seed
	c.deliver = func(n *Node, m transport.Message) {
		if !slices.ContainsFunc(seeds, func(s seed) bool { return s.kind == m.Kind }) {
			seeds = append(seeds, seed{m.Kind, uint8(n.id), bytes.Clone(m.Payload)})
		}
		n.HandleMessage(m)
	}
	c.engine.Run(4)
	for _, s := range seeds {
		f.Add(s.kind-kindPropose, s.to, false, s.payload)
		f.Add(s.kind-kindPropose, s.to, true, s.payload)
	}
	sent := map[model.NodeID]*countingEndpoint{}
	for id, n := range c.nodes {
		sent[id] = &countingEndpoint{id: id}
		n.cfg.Endpoint = sent[id]
	}
	f.Fuzz(func(t *testing.T, kind, to uint8, sign bool, b []byte) {
		k := kindPropose + kind%(kindAuditBaseReply-kindPropose+1)
		n := c.nodes[model.NodeID(1+int(to)%len(c.nodes))]
		msg := transport.Message{From: model.NodeID(1 + int(to+kind)%len(c.nodes)), To: n.id, Kind: k, Payload: b}
		m, err := rules[k].decode(b, new(auditScratch))
		if from := c.nodes[m.head().from]; sign && err == nil && from != nil {
			msg.From, msg.Payload = from.id, seal(t, m, from.cfg.Identity)
		}
		before, sends := c.footprint(n), sent[n.id].sent
		n.HandleMessage(msg)
		if err != nil && (c.footprint(n) != before || sent[n.id].sent != sends) {
			t.Fatalf("kind %d: an undecodable message changed %s to %s, sends %d to %d",
				k, before, c.footprint(n), sends, sent[n.id].sent)
		}
		for y, st := range n.audits {
			if st.waiting {
				t.Fatalf("%v waits on an audit of %v after %v closed", n.id, y, n.round)
			}
			for i, cp := range st.complaints {
				if cp.round <= st.lastRound || cp.round > n.round {
					t.Fatalf("%v holds a complaint against %v about %v, window (%v, %v]",
						n.id, y, cp.round, st.lastRound, n.round)
				}
				if slices.ContainsFunc(st.complaints[:i], func(o complaint) bool { return o.round == cp.round && o.from == cp.from }) {
					t.Fatalf("%v holds two complaints by %v against %v about %v", n.id, cp.from, y, cp.round)
				}
			}
		}
	})
}
