package transport

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/wire"
)

// newSteppedTCP builds the batching tests' standard fixture: a dynamic
// stepped TCPNet over loopback.
func newSteppedTCP(t *testing.T) *TCPNet {
	t.Helper()
	tn := NewTCPNet(nil)
	tn.SetDynamic("127.0.0.1")
	tn.SetStepped(5 * time.Second)
	t.Cleanup(func() { _ = tn.Close() })
	return tn
}

// TestTCPFlushPerPhase is the syscall-economy gate: in stepped mode a
// whole engine phase's frames leave in at most one write syscall per
// active connection per phase — the invariant BENCH_transport.json's
// bytes-per-syscall numbers rest on — measured by IOStats deltas, not
// asserted by construction.
func TestTCPFlushPerPhase(t *testing.T) {
	tn := newSteppedTCP(t)

	const nodes = 4
	const msgs = 5
	var mu sync.Mutex
	got := make(map[model.NodeID]int)
	eps := make(map[model.NodeID]Endpoint, nodes)
	for i := 1; i <= nodes; i++ {
		id := model.NodeID(i)
		ep, err := tn.Register(id, func(Message) {
			mu.Lock()
			got[id]++
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		eps[id] = ep
	}

	// Phase 1: three senders, one destination. The shared dialer gives
	// the whole process one connection to node 4, so the phase must cost
	// exactly one write and one jumbo frame.
	before := tn.IOStats()
	for from := 1; from <= 3; from++ {
		for k := 0; k < msgs; k++ {
			if err := eps[model.NodeID(from)].Send(4, 1, []byte{byte(from), byte(k)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	tn.DeliverAll()
	d := ioDelta(before, tn.IOStats())
	if got[4] != 3*msgs {
		t.Fatalf("node 4 got %d messages, want %d", got[4], 3*msgs)
	}
	if d.Writes != 1 {
		t.Fatalf("one-destination phase cost %d writes, want exactly 1", d.Writes)
	}
	if d.FramesOut != 3*msgs || d.Jumbo != 1 {
		t.Fatalf("phase wire shape: %d frames, %d jumbo; want %d frames in 1 jumbo", d.FramesOut, d.Jumbo, 3*msgs)
	}

	// Phase 2: every node blasts every other — three active destinations
	// per direction, so the phase's write budget is one per connection:
	// at most nodes distinct destinations.
	before = tn.IOStats()
	for from := 1; from <= nodes; from++ {
		for to := 1; to <= nodes; to++ {
			if from == to {
				continue
			}
			for k := 0; k < msgs; k++ {
				if err := eps[model.NodeID(from)].Send(model.NodeID(to), 1, []byte{byte(from), byte(to)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	tn.DeliverAll()
	d = ioDelta(before, tn.IOStats())
	wantFrames := uint64(nodes * (nodes - 1) * msgs)
	if d.FramesOut != wantFrames {
		t.Fatalf("all-to-all phase sent %d frames, want %d", d.FramesOut, wantFrames)
	}
	if d.Writes > nodes {
		t.Fatalf("all-to-all phase cost %d writes for %d connections: batching broke the <=1 flush per (connection, phase) invariant", d.Writes, nodes)
	}
	if d.Jumbo != d.Writes {
		t.Fatalf("every multi-frame flush should be a jumbo: %d jumbo vs %d writes", d.Jumbo, d.Writes)
	}
}

// ioDelta subtracts two IOStats snapshots field-wise.
func ioDelta(before, after IOStats) IOStats {
	return IOStats{
		FramesOut: after.FramesOut - before.FramesOut,
		FramesIn:  after.FramesIn - before.FramesIn,
		Writes:    after.Writes - before.Writes,
		Reads:     after.Reads - before.Reads,
		BytesOut:  after.BytesOut - before.BytesOut,
		BytesIn:   after.BytesIn - before.BytesIn,
		Jumbo:     after.Jumbo - before.Jumbo,
		Retrans:   after.Retrans - before.Retrans,
	}
}

// TestTCPJumboRoundTrip drains a coalesced phase and checks content
// fidelity: every payload that rode a jumbo arrives intact, exactly
// once, in per-sender order — the stepped-mode drain contract for
// coalesced frames.
func TestTCPJumboRoundTrip(t *testing.T) {
	tn := newSteppedTCP(t)

	var mu sync.Mutex
	var gotPayloads [][]byte
	if _, err := tn.Register(9, func(m Message) {
		mu.Lock()
		gotPayloads = append(gotPayloads, append([]byte(nil), m.Payload...))
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	ep1, err := tn.Register(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}

	const frames = 40
	want := make(map[string]bool, frames)
	for k := 0; k < frames; k++ {
		// Varied sizes so sub-frame boundaries land at odd offsets.
		payload := bytes.Repeat([]byte{byte(k)}, 1+k*7%97)
		payload = append(payload, fmt.Sprintf("#%d", k)...)
		want[string(payload)] = true
		if err := ep1.Send(9, 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	before := tn.IOStats()
	tn.DeliverAll()
	d := ioDelta(before, tn.IOStats())

	mu.Lock()
	defer mu.Unlock()
	if len(gotPayloads) != frames {
		t.Fatalf("delivered %d frames, want %d", len(gotPayloads), frames)
	}
	for i, p := range gotPayloads {
		if !want[string(p)] {
			t.Fatalf("frame %d: unexpected payload %q", i, p)
		}
		delete(want, string(p))
	}
	if d.Jumbo == 0 {
		t.Fatal("a 40-frame phase to one destination never used a jumbo frame")
	}
	// One sender, one destination, one phase: in-order delivery means
	// frame k carries suffix #k.
	for i, p := range gotPayloads {
		if !bytes.HasSuffix(p, []byte(fmt.Sprintf("#%d", i))) {
			t.Fatalf("frame %d out of order: payload %q", i, p)
		}
	}
}

// TestTCPBatchOverflowFlushesMidPhase: a phase that queues more than
// maxBatchBytes to one destination must spill mid-phase (bounded
// memory) and still deliver everything.
func TestTCPBatchOverflowFlushesMidPhase(t *testing.T) {
	tn := newSteppedTCP(t)

	var mu sync.Mutex
	var gotBytes int
	var gotFrames int
	if _, err := tn.Register(2, func(m Message) {
		mu.Lock()
		gotBytes += len(m.Payload)
		gotFrames++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	ep1, err := tn.Register(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}

	const frames = 6
	payload := bytes.Repeat([]byte{0xAB}, 64<<10)
	before := tn.IOStats()
	for k := 0; k < frames; k++ {
		if err := ep1.Send(2, 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	tn.DeliverAll()
	d := ioDelta(before, tn.IOStats())

	mu.Lock()
	defer mu.Unlock()
	if gotFrames != frames || gotBytes != frames*len(payload) {
		t.Fatalf("delivered %d frames / %d bytes, want %d / %d", gotFrames, gotBytes, frames, frames*len(payload))
	}
	if d.Writes < 2 {
		t.Fatalf("%d bytes pending against a %d-byte batch bound cost %d writes; the overflow flush never fired",
			frames*len(payload), maxBatchBytes, d.Writes)
	}
}

// TestFrameReaderArenaOwnership: the reader recycles its arena in place
// while no payload of it is queued, moves to a fresh one — leaving the
// queued payloads intact — while one is, and the arena left behind is free
// again once those payloads have been handled.
func TestFrameReaderArenaOwnership(t *testing.T) {
	const frames = 80
	body := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 4000) }
	var stream bytes.Buffer
	for i := 0; i < frames; i++ {
		stream.Write(buildFrame(1, 2, 7, body(i)))
	}
	// Nothing queued: 320 KB of frames pass through one arena.
	fr := newFrameReader(bytes.NewReader(stream.Bytes()))
	first := fr.arena
	for i := 0; i < frames; i++ {
		if _, payload, err := fr.next(); err != nil || !bytes.Equal(payload, body(i)) {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if fr.arena != first || first.Shared() {
		t.Fatal("reader left an arena nobody else held")
	}
	fr.close()

	// Every payload queued, the way stepped delivery queues them.
	fr = newFrameReader(bytes.NewReader(stream.Bytes()))
	var queued []queuedDelivery
	for i := 0; i < frames; i++ {
		_, payload, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		fr.arena.Retain()
		queued = append(queued, queuedDelivery{msg: Message{To: 2, Payload: payload}, arena: fr.arena})
	}
	fr.close()
	arenas := map[*wire.Arena]bool{}
	for i, q := range queued {
		arenas[q.arena] = true
		if !bytes.Equal(q.msg.Payload, body(i)) {
			t.Fatalf("queued payload %d was overwritten before it was handled", i)
		}
	}
	if len(arenas) < 2 { // a pooled arena may be up to 256 KB
		t.Fatalf("320 KB of queued payloads sat in %d arena", len(arenas))
	}
	var delivered atomic.Uint64
	handled := 0
	drainQueued(queued, func(model.NodeID) Handler {
		return func(m Message) {
			if !bytes.Equal(m.Payload, body(handled)) {
				t.Errorf("payload %d changed under its handler", handled)
			}
			handled++
		}
	}, &delivered)
	if handled != frames || delivered.Load() != frames {
		t.Fatalf("handled %d of %d", handled, frames)
	}
	for a := range arenas {
		if a.Shared() {
			t.Fatal("an arena is still referenced after its wave was handled")
		}
	}
}
