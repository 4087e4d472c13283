package transport

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/wire"
)

// lentPayload is the i-th payload endpoint from lends in the arena tests:
// size bytes that name their sender and index.
func lentPayload(from model.NodeID, i, size int) []byte {
	p := bytes.Repeat([]byte{byte(from), byte(i), byte(i >> 8)}, size/3+1)
	return p[:size]
}

// TestMemNetLentFanOutSharesOneView: a lent fan-out is one copy in the
// send arena, and every destination is delivered that very view — not the
// caller's buffer, which it may overwrite as soon as SendLent returns.
func TestMemNetLentFanOutSharesOneView(t *testing.T) {
	n := NewMemNet()
	var got [][]byte
	for id := model.NodeID(2); id <= 4; id++ {
		_, _ = n.Register(id, func(m Message) {
			got = append(got, m.Payload)
			if string(m.Payload) != "fan-out" {
				t.Errorf("node %v was delivered %q", m.To, m.Payload)
			}
		})
	}
	ep1, _ := n.Register(1, func(Message) {})
	buf := []byte("fan-out")
	if err := SendLent(ep1, 0, buf, 2, 3, 4); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXXXX")
	n.DeliverAll()
	if len(got) != 3 {
		t.Fatalf("delivered %d messages, want 3", len(got))
	}
	for _, p := range got {
		if &p[0] != &got[0][0] || &p[0] == &buf[0] || cap(p) != len(p) {
			t.Fatal("want one arena view, capped at its length, shared by every destination")
		}
	}
}

// TestMemNetCappedLentSendOwnership: a lent message the upload cap parks
// is cloned into the link queue and gives its arena reference back at
// once, so it pins no chunk across rounds; with recycled chunks poisoned
// it still arrives byte-exact in the next round.
func TestMemNetCappedLentSendOwnership(t *testing.T) {
	defer wire.PoisonReleased()()
	n := NewMemNet()
	var got []string
	record := func(m Message) { got = append(got, string(m.Payload)) }
	_, _ = n.Register(2, record)
	_, _ = n.Register(3, record)
	ep1, _ := n.Register(1, func(Message) {})
	ep4, _ := n.Register(4, func(Message) {})
	first, parked := []byte("first lent message"), []byte("parked lent message")
	n.Faults().SetUploadCap(1, uint64(HeaderBytes+len(first)))
	_ = SendLent(ep1, 0, first, 2)
	_ = SendLent(ep1, 0, parked, 3) // over budget: deferred to the next round
	n.DeliverAll()
	if n.Faults().QueueDepthOf(1) != 1 {
		t.Fatalf("queue depth %d, want the second message parked", n.Faults().QueueDepthOf(1))
	}
	// A full-chunk send fits the chunk both messages were lent from only
	// if nothing holds it any more, so that the merge rewound it: it is
	// poisoned, then overwritten, before the parked message leaves.
	_ = SendLent(ep4, 0, bytes.Repeat([]byte{0xEE}, sendChunkSize), 4)
	n.DeliverAll()
	if n.arena.made != 1 {
		t.Fatalf("%d chunks made, want the first one reused", n.arena.made)
	}
	n.BeginRound()
	n.DeliverAll()
	if len(got) != 2 || got[0] != string(first) || got[1] != string(parked) {
		t.Fatalf("delivered %q", got)
	}
}

// TestSendArenaPoisonsReleasedBytes: under wire.PoisonReleased, a view a
// handler kept past its return reads garbage once the chunk holds no
// other: the merge rewinds a current chunk nothing holds, and recycles a
// retired one when its last message has been handled.
func TestSendArenaPoisonsReleasedBytes(t *testing.T) {
	defer wire.PoisonReleased()()
	n := NewMemNet()
	var seen []string
	var kept [][]byte
	_, _ = n.Register(2, func(m Message) {
		seen = append(seen, string(m.Payload))
		kept = append(kept, m.Payload)
	})
	_, _ = n.Register(3, func(Message) {})
	ep1, _ := n.Register(1, func(Message) {})
	poisoned := func(b []byte) bool { return bytes.Equal(b, bytes.Repeat([]byte{0xDB}, len(b))) }

	_ = SendLent(ep1, 0, []byte("rewound"), 2)
	n.DeliverAll()
	if len(seen) != 1 || seen[0] != "rewound" || !poisoned(kept[0]) {
		t.Fatalf("delivered %q, kept view reads %q; want it poisoned by the rewind", seen, kept[0])
	}

	// One more message from the chunk, then one that retires it while
	// that message is in flight: the next chunk is a new one, and the
	// old is recycled when the message has been handled.
	_ = SendLent(ep1, 0, []byte("recycled"), 2)
	_ = SendLent(ep1, 0, make([]byte, sendChunkSize), 3)
	n.DeliverAll()
	if n.arena.made != 2 || len(n.arena.free) != 1 {
		t.Fatalf("%d chunks made, %d idle; want 2 and 1", n.arena.made, len(n.arena.free))
	}
	if len(seen) != 2 || seen[1] != "recycled" || !poisoned(kept[1]) {
		t.Fatalf("delivered %q, kept view reads %q; want it poisoned by the recycle", seen, kept[1])
	}
}

// TestSendArenaRecycles: lent payloads sent from several goroutines at
// once, then relayed by their receivers, arrive byte-exact; a second
// identical burst allocates no new chunk; and after each burst every
// chunk is idle again, no more of them than the burst had in flight.
func TestSendArenaRecycles(t *testing.T) {
	const senders, per, size = 8, 40, 1000
	n := NewMemNet()
	eps := make([]Endpoint, senders+1)
	var mu sync.Mutex
	received := map[string]int{}
	for i := range eps {
		id := model.NodeID(i + 1)
		eps[i], _ = n.Register(id, func(m Message) {
			mu.Lock()
			received[string(m.Payload)]++
			mu.Unlock()
			if m.Kind == 0 { // relay once, lending the delivered payload
				_ = SendLent(eps[id-1], 1, m.Payload, model.NodeID(senders+1))
			}
		})
	}
	burst := func() {
		clear(received)
		var wg sync.WaitGroup
		for s := range senders {
			wg.Add(1)
			go func(ep Endpoint) {
				defer wg.Done()
				buf := make([]byte, size)
				for i := range per {
					copy(buf, lentPayload(ep.NodeID(), i, size))
					to := model.NodeID((int(ep.NodeID())+i)%senders + 1)
					_ = SendLent(ep, 0, buf, to)
				}
			}(eps[s])
		}
		wg.Wait()
		n.DeliverAll()
		for s := range senders {
			for i := range per {
				if c := received[string(lentPayload(model.NodeID(s+1), i, size))]; c != 2 {
					t.Fatalf("payload %d of node %d delivered %d times intact, want 2 (sent and relayed)", i, s+1, c)
				}
			}
		}
		if idle := len(n.arena.free) + 1; idle != n.arena.made {
			t.Fatalf("%d of %d chunks idle after the burst", idle, n.arena.made)
		}
	}
	burst()
	made := n.arena.made
	// A wave has at most senders·per payloads in flight — lent in one
	// wave while the previous one is handled — and a chunk holds
	// sendChunkSize/size of them.
	if inFlight := 2 * (senders*per/(sendChunkSize/size) + 1); made > inFlight {
		t.Errorf("a burst made %d chunks; its waves never have more than %d in flight", made, inFlight)
	}
	burst()
	if n.arena.made != made {
		t.Errorf("a second identical burst made %d new chunks", n.arena.made-made)
	}
}

// TestSendArenaLargePayload: a payload larger than a chunk gets a chunk
// of its own, which is not kept for reuse.
func TestSendArenaLargePayload(t *testing.T) {
	n := NewMemNet()
	big := bytes.Repeat([]byte("large"), sendChunkSize/5+1)
	var got []byte
	_, _ = n.Register(2, func(m Message) { got = bytes.Clone(m.Payload) })
	ep1, _ := n.Register(1, func(Message) {})
	_ = SendLent(ep1, 0, big, 2)
	n.DeliverAll()
	if !bytes.Equal(got, big) {
		t.Fatal("a large lent payload arrived changed")
	}
	if n.arena.made != 0 || len(n.arena.free) != 0 {
		t.Fatalf("a large payload's chunk was pooled: %d made, %d idle", n.arena.made, len(n.arena.free))
	}
}

// TestMemNetLentSendAllocatesNothing: once the arena has made the chunks
// a wave needs, lending, sending and delivering allocate nothing — the
// clone each lent send used to cost is gone.
func TestMemNetLentSendAllocatesNothing(t *testing.T) {
	n := NewMemNet()
	const nodes = 8
	eps := make([]Endpoint, nodes)
	for i := range eps {
		eps[i], _ = n.Register(model.NodeID(i+1), func(Message) {})
	}
	payload := make([]byte, 900)
	wave := func() {
		for i, ep := range eps {
			_ = SendLent(ep, 1, payload, model.NodeID((i+1)%nodes+1), model.NodeID((i+2)%nodes+1))
		}
		n.DeliverAll()
	}
	wave()
	if allocs := testing.AllocsPerRun(100, wave); allocs != 0 {
		t.Errorf("a lent send-and-deliver wave allocates %.0f objects", allocs)
	}
}
