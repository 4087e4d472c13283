package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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

// TestTCPFlushPerPhase is the syscall-economy gate: a whole engine
// phase's frames leave in at most one write syscall per active
// connection per phase — the invariant the benchmark ledger's
// transport.frames_per_write and transport.bytes_per_write rows rest on —
// measured by IOStats deltas, not asserted by construction.
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

// TestTCPFlushAllocatesNothing: once a connection is up, a stepped phase —
// frames enqueued to one destination, then FlushAll — allocates nothing:
// the writer copies each frame into a batch buffer that, like its frame
// list, keeps its capacity across flushes, and the
// mux swaps its pending list with a spare.
func TestTCPFlushAllocatesNothing(t *testing.T) {
	tn, ep := tapNode(t, func([]byte) {})
	payload := bytes.Repeat([]byte{0x5A}, 700)
	phase := func() {
		for k := 0; k < 8; k++ {
			if err := ep.Send(tapID, 1, payload); err != nil {
				t.Fatal(err)
			}
		}
		tn.FlushAll()
	}
	phase() // dial, and grow every array to the phase's size
	before := tn.IOStats()
	if allocs := testing.AllocsPerRun(50, phase); allocs != 0 {
		t.Fatalf("a steady-state phase allocated %.1f times", allocs)
	}
	if d := ioDelta(before, tn.IOStats()); d.Writes != 51 || d.Jumbo != 51 {
		t.Fatalf("51 phases made %d writes, %d jumbo", d.Writes, d.Jumbo)
	}
}

// TestTCPFlushAllConcurrentSenders: writers join the mux's pending list
// from many sending goroutines while two others run FlushAll passes; every
// frame is written exactly once and arrives.
func TestTCPFlushAllConcurrentSenders(t *testing.T) {
	tn := newSteppedTCP(t)
	const senders, dests, frames = 4, 3, 200
	var mu sync.Mutex
	got := 0
	eps := make([]Endpoint, senders)
	for i := range eps {
		ep, err := tn.Register(model.NodeID(i+1), func(Message) {})
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	for d := 0; d < dests; d++ {
		if _, err := tn.Register(model.NodeID(100+d), func(Message) {
			mu.Lock()
			got++
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	var sending, flushing sync.WaitGroup
	stop := make(chan struct{})
	for f := 0; f < 2; f++ {
		flushing.Add(1)
		go func() {
			defer flushing.Done()
			for {
				select {
				case <-stop:
					return
				default:
					tn.FlushAll()
				}
			}
		}()
	}
	for _, ep := range eps {
		sending.Add(1)
		go func() {
			defer sending.Done()
			for k := 0; k < frames; k++ {
				if err := ep.Send(model.NodeID(100+k%dests), 1, []byte{byte(k)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	sending.Wait()
	close(stop)
	flushing.Wait()
	tn.DeliverAll()
	mu.Lock()
	defer mu.Unlock()
	if want := senders * frames; got != want || tn.IOStats().FramesOut != uint64(want) {
		t.Fatalf("delivered %d of %d frames (%d enqueued)", got, want, tn.IOStats().FramesOut)
	}
}

// TestTCPFlushLeavesDeadIdleWriterToEnqueue: FlushAll passes skip a cached
// writer with nothing pending even when its connection is dead; the next
// Send through it meets the sticky error, is refunded, and drops the
// writer, so the Send after that re-dials and is delivered.
func TestTCPFlushLeavesDeadIdleWriterToEnqueue(t *testing.T) {
	tn := newSteppedTCP(t)
	var got atomic.Int64
	ep1, err := tn.Register(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Register(2, func(Message) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := ep1.Send(2, 1, []byte("up")); err != nil {
		t.Fatal(err)
	}
	tn.DeliverAll()
	w, err := tn.mux.get(tn.book[2])
	if err != nil {
		t.Fatal(err)
	}
	w.fail(errors.New("connection died while idle"))
	tn.FlushAll()
	sent := tn.TrafficOf(1)
	if err := ep1.Send(2, 1, []byte("lost")); err == nil {
		t.Fatal("a send through a dead writer succeeded")
	}
	if tr := tn.TrafficOf(1); tr != sent {
		t.Fatalf("the failed send stayed charged: %+v, was %+v", tr, sent)
	}
	if next, err := tn.mux.get(tn.book[2]); err != nil || next == w {
		t.Fatalf("the dead writer is still cached (%v)", err)
	}
	if err := ep1.Send(2, 1, []byte("again")); err != nil {
		t.Fatal(err)
	}
	tn.DeliverAll()
	if got.Load() != 2 {
		t.Fatalf("node 2 got %d messages, want 2", got.Load())
	}
}

// TestTCPLossyWriteFailureRefundsEveryCopy: under scripted loss admission
// charges a send for every retransmitted copy, so a send whose socket
// write then fails must give all of them back — traffic and upload budget
// alike — not just the first.
func TestTCPLossyWriteFailureRefundsEveryCopy(t *testing.T) {
	tn := newSteppedTCP(t)
	ep1, err := tn.Register(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Register(2, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := ep1.Send(2, 1, []byte("up")); err != nil {
		t.Fatal(err)
	}
	tn.DeliverAll()
	w, err := tn.mux.get(tn.book[2])
	if err != nil {
		t.Fatal(err)
	}
	w.fail(errors.New("connection died while idle"))
	tn.BeginRound()
	tn.Faults().SetSeed(3)
	tn.Faults().SetLossRate(0.9)
	sent, retransmitted := tn.TrafficOf(1), tn.Faults().Retransmitted()
	if err := ep1.Send(2, 1, []byte("lost")); err == nil {
		t.Fatal("a send through a dead writer succeeded")
	}
	if tn.Faults().Retransmitted() == retransmitted {
		t.Fatal("the failed send was admitted on its first attempt; the seed no longer exercises retransmission")
	}
	if tr := tn.TrafficOf(1); tr != sent {
		t.Fatalf("the failed send stayed charged: %+v, was %+v", tr, sent)
	}
	tn.faults.mu.Lock()
	spent := tn.faults.spent[1]
	tn.faults.mu.Unlock()
	if spent != 0 {
		t.Fatalf("the failed send kept %d bytes of round budget", spent)
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
// again once those payloads have been handled. An arena of a larger size
// class serves a large frame and is given up as soon as the reader is idle;
// releasing it never hands a default-size request a large buffer.
func TestFrameReaderArenaOwnership(t *testing.T) {
	const frames = 80
	body := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 4000) }
	var stream bytes.Buffer
	for i := 0; i < frames; i++ {
		stream.Write(buildFrame(1, 2, 7, body(i)))
	}
	// Nothing queued: 320 KB of frames pass through one arena.
	fr := newFrameReader(bytes.NewReader(stream.Bytes()), hostsOf(2))
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
	fr = newFrameReader(bytes.NewReader(stream.Bytes()), hostsOf(2))
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
	if len(arenas) < 2 {
		t.Fatalf("320 KB of queued payloads sat in %d arena", len(arenas))
	}
	tn := newSteppedTCP(t)
	handled := 0
	if _, err := tn.Register(2, func(m Message) {
		if !bytes.Equal(m.Payload, body(handled)) {
			t.Errorf("payload %d changed under its handler", handled)
		}
		handled++
	}); err != nil {
		t.Fatal(err)
	}
	tn.inbox = queued
	if !tn.drainInbox() || handled != frames || tn.delivered.Load() != frames {
		t.Fatalf("handled %d of %d", handled, frames)
	}
	for a := range arenas {
		if a.Shared() {
			t.Fatal("an arena is still referenced after its wave was handled")
		}
	}

	// A frame larger than the default arena moves the reader up a size
	// class; once it has consumed what it read it is back on a default
	// arena, while the large one waits for its queued payload.
	large := bytes.Repeat([]byte{0x4C}, wire.ArenaSize+wire.ArenaSize/4)
	fr = newFrameReader(&chunkReader{chunks: [][]byte{buildFrame(1, 2, 7, large), buildFrame(1, 2, 7, body(0))}}, hostsOf(2))
	defer fr.close()
	_, payload, err := fr.next()
	if err != nil || !bytes.Equal(payload, large) {
		t.Fatalf("large frame: %v", err)
	}
	big := fr.arena
	if len(big.Bytes()) <= wire.ArenaSize {
		t.Fatalf("a %d-byte frame was read into a %d-byte arena", len(large), len(big.Bytes()))
	}
	big.Retain() // queued, as stepped delivery queues it
	if _, small, err := fr.next(); err != nil || !bytes.Equal(small, body(0)) {
		t.Fatalf("frame after the large one: %v", err)
	}
	if len(fr.arena.Bytes()) != wire.ArenaSize {
		t.Fatalf("an idle reader holds a %d-byte arena, want the default %d", len(fr.arena.Bytes()), wire.ArenaSize)
	}
	if !bytes.Equal(payload, large) {
		t.Fatal("the queued large payload was overwritten")
	}
	big.Release() // its handler returned: the large arena goes back to its pool
	if a := wire.GetArena(wire.ArenaSize); len(a.Bytes()) != wire.ArenaSize {
		t.Fatalf("a default request got a %d-byte arena", len(a.Bytes()))
	} else {
		a.Release()
	}
}

// chunkReader returns its chunks one per Read, the way a socket returns
// what one flush wrote.
type chunkReader struct{ chunks [][]byte }

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

// TestTCPLargeFrameWritesThrough: a frame larger than maxBatchBytes never
// enters the batch buffer. Send flushes what is pending and writes the
// frame from the caller's slice before it returns, so the caller may
// overwrite it at once; the pending frames arrive ahead of it, and the
// writer keeps the capacity its batches needed, not the frame's.
func TestTCPLargeFrameWritesThrough(t *testing.T) {
	tn := newSteppedTCP(t)
	var got [][]byte
	if _, err := tn.Register(2, func(m Message) { got = append(got, bytes.Clone(m.Payload)) }); err != nil {
		t.Fatal(err)
	}
	ep1, err := tn.Register(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	// Six 64 KB frames: the batch overflows mid-phase, growing the buffer
	// to its largest.
	for k := 0; k < 6; k++ {
		if err := ep1.Send(2, 1, bytes.Repeat([]byte{byte(k)}, 64<<10)); err != nil {
			t.Fatal(err)
		}
	}
	tn.DeliverAll()
	tn.mux.mu.Lock()
	w := tn.mux.conns[tn.book[2]]
	tn.mux.mu.Unlock()
	w.mu.Lock()
	grown := cap(w.buf)
	w.mu.Unlock()

	small := []byte("pending ahead of the large frame")
	if err := ep1.Send(2, 1, small); err != nil {
		t.Fatal(err)
	}
	large := bytes.Repeat([]byte{0x5C}, 1<<20)
	before := tn.IOStats()
	if err := ep1.Send(2, 1, large); err != nil {
		t.Fatal(err)
	}
	d := ioDelta(before, tn.IOStats())
	if d.Writes != 3 || d.BytesOut != uint64(2*_tcpFrameHeader+len(small)+len(large)) {
		t.Fatalf("large Send made %d writes of %d bytes; want the pending frame flushed, then header and payload written", d.Writes, d.BytesOut)
	}
	want := bytes.Clone(large)
	clear(large) // the caller reuses its buffer as soon as Send returns
	w.mu.Lock()
	after, pending := cap(w.buf), len(w.frames)
	w.mu.Unlock()
	if pending != 0 || after != grown || after >= 2*maxBatchBytes {
		t.Fatalf("writer after a 1 MB frame: %d pending, buffer capacity %d (was %d, bound %d)", pending, after, grown, 2*maxBatchBytes)
	}
	got = got[:0]
	tn.DeliverAll()
	if len(got) != 2 || !bytes.Equal(got[0], small) || !bytes.Equal(got[1], want) {
		t.Fatalf("delivered %d frames; want the pending one, then the 1 MB frame byte-exact", len(got))
	}
}

// TestTCPCappedLentSendOwnership: a capped TCP sender lends Send a pooled
// buffer and releases it at once. The frame that passes is copied into
// the batch buffer; the one the cap defers is cloned into the link queue —
// the one copy the fault plane makes — so with released buffers poisoned
// it still arrives byte-exact in the next round.
func TestTCPCappedLentSendOwnership(t *testing.T) {
	defer wire.PoisonReleased()()
	tn := newSteppedTCP(t)
	var got [][]byte
	if _, err := tn.Register(2, func(m Message) { got = append(got, bytes.Clone(m.Payload)) }); err != nil {
		t.Fatal(err)
	}
	ep1, err := tn.Register(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{bytes.Repeat([]byte{0x11}, 100), bytes.Repeat([]byte{0x22}, 100)}
	tn.Faults().SetUploadCap(1, uint64(HeaderBytes+100))
	tn.BeginRound()
	for _, p := range want {
		w := wire.GetWriter()
		w.Raw(p)
		if err := SendLent(ep1, 1, w.Finish(), 2); err != nil {
			t.Fatal(err)
		}
		w.Release()
	}
	tn.DeliverAll()
	if len(got) != 1 || tn.Faults().QueueDepth() != 1 {
		t.Fatalf("round 1: %d delivered, %d queued; want 1 and 1", len(got), tn.Faults().QueueDepth())
	}
	tn.BeginRound()
	tn.DeliverAll()
	if len(got) != 2 {
		t.Fatalf("the deferred frame did not arrive in the next round: %d delivered", len(got))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d arrived as %x..., want %x...", i, got[i][:4], want[i][:4])
		}
	}
}
