package transport

import (
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/model"
)

// Per-connection write batching. Frames enqueue into a connection's
// writer and leave the process in one vectored write per flush: two or
// more pending frames are wrapped into a single jumbo frame (kindJumbo)
// and the receive side unpacks it transparently. The writer copies no
// payload: it keeps a slab of 13-byte headers beside the payload slices
// Endpoint.Send was handed (the network owns those; see DESIGN.md "Who
// owns a byte") and writes headers and payloads interleaved with writev,
// jumbo header first, dropping every payload reference once the flush is
// done. The net flushes at the phase boundaries its driver already calls
// (BeginRound's backlog drain, every DeliverAll or DeliverUntil pass),
// which is what makes "≤ 1 flush per connection per engine phase" hold.

// maxBatchBytes bounds a writer's pending bytes; a phase that queues more
// than this to one destination address flushes mid-phase rather than grow
// without bound.
const maxBatchBytes = 256 << 10

// IOStats counts the transport's actual wire operations — syscalls and
// frames, not the HeaderBytes accounting model — so benchmarks can report
// bytes-per-syscall and tests can assert the batching invariant.
type IOStats struct {
	FramesOut uint64 // logical frames enqueued for the wire
	FramesIn  uint64 // logical frames decoded off the wire
	Writes    uint64 // vectored write calls, one per flush with data
	Reads     uint64 // socket read syscalls that returned data
	BytesOut  uint64 // bytes handed to write calls
	BytesIn   uint64 // bytes returned by read syscalls
	Jumbo     uint64 // aggregate frames written (flushes of more than one frame)
}

// ioCounters is the atomic accumulator behind IOStats.
type ioCounters struct {
	framesOut, framesIn atomic.Uint64
	writes, reads       atomic.Uint64
	bytesOut, bytesIn   atomic.Uint64
	jumbo               atomic.Uint64
}

func (c *ioCounters) snapshot() IOStats {
	return IOStats{
		FramesOut: c.framesOut.Load(),
		FramesIn:  c.framesIn.Load(),
		Writes:    c.writes.Load(),
		Reads:     c.reads.Load(),
		BytesOut:  c.bytesOut.Load(),
		BytesIn:   c.bytesIn.Load(),
		Jumbo:     c.jumbo.Load(),
	}
}

// pendingFrame is one frame waiting for the flush: the caller's payload,
// held as given, and what a failed write must unwind — who to refund, for
// how many copies of what size, and the inflight slot to return. copies
// shares from's word, so a writer's retained frames array stays 40 bytes
// an entry.
type pendingFrame struct {
	payload []byte
	from    model.NodeID
	copies  uint32
	size    uint64
}

// connWriter coalesces outbound frames for one connection of the mux. All
// access is under mu; the write itself runs under mu too, serialising
// writers to a connection exactly as the pre-batching code serialised
// per-frame writes.
type connWriter struct {
	net  *TCPNet
	mux  *connMux
	addr string
	conn net.Conn

	mu     sync.Mutex
	frames []pendingFrame
	hdrs   []byte       // jumbo header slot, then one frame header per pending frame
	batch  int          // what a jumbo flush writes: its header plus every frame
	to     model.NodeID // destination of the last pending frame, the jumbo's to
	err    error        // sticky: the connection is dead
	queued bool         // on the mux's pending list since the last FlushAll
	vec    net.Buffers  // the flush's header/payload vector, rebuilt per flush
}

func newConnWriter(cm *connMux, addr string, conn net.Conn) *connWriter {
	w := &connWriter{net: cm.net, mux: cm, addr: addr, conn: conn}
	w.reset()
	return w
}

// reset empties the pending frames, keeping the jumbo header slot and the
// arrays' capacity but no payload reference.
func (w *connWriter) reset() {
	clear(w.frames)
	w.frames = w.frames[:0]
	clear(w.vec)
	w.vec = w.vec[:0]
	w.hdrs = append(w.hdrs[:0], make([]byte, _tcpFrameHeader)...)
	w.batch = _tcpFrameHeader
}

// enqueue appends one admitted frame, whose copies admission charged; the
// payload is kept, not copied, until the flush. The caller has already
// raised inflight; on a sticky-dead connection (or a mid-phase overflow
// flush failure) the frame is unwound here and the error returned.
func (w *connWriter) enqueue(msg Message, copies int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	size := uint64(msg.WireSize())
	if w.err != nil {
		w.net.inflight.Add(-1)
		w.net.faults.refund(msg.From, copies, size)
		return w.err
	}
	if !w.queued {
		w.queued = true
		w.mux.markPending(w)
	}
	var hdr [_tcpFrameHeader]byte
	putFrameHeader(hdr[:], msg.From, msg.To, msg.Kind, len(msg.Payload))
	w.hdrs = append(w.hdrs, hdr[:]...)
	w.frames = append(w.frames, pendingFrame{payload: msg.Payload, from: msg.From, copies: uint32(copies), size: size})
	w.batch += _tcpFrameHeader + len(msg.Payload)
	w.to = msg.To
	w.net.io.framesOut.Add(1)
	if w.batch >= maxBatchBytes {
		if err := w.flushLocked(); err != nil {
			return err
		}
	}
	return nil
}

// flushQueued writes the pending frames in one vectored write for the
// mux's FlushAll pass, which has taken the writer off its pending list,
// and returns the sticky connection error, if any.
func (w *connWriter) flushQueued() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.queued = false
	return w.flushLocked()
}

func (w *connWriter) flushLocked() error {
	if len(w.frames) == 0 {
		return w.err
	}
	n := w.batch
	if len(w.frames) == 1 {
		n -= _tcpFrameHeader // a single frame goes out as itself
	} else {
		putFrameHeader(w.hdrs, 0, w.to, kindJumbo, n-_tcpFrameHeader)
		w.vec = append(w.vec, w.hdrs[:_tcpFrameHeader])
		w.net.io.jumbo.Add(1)
	}
	for i, f := range w.frames {
		off := (i + 1) * _tcpFrameHeader
		w.vec = append(w.vec, w.hdrs[off:off+_tcpFrameHeader], f.payload)
	}
	// WriteTo advances the vector it is called on past what it wrote; the
	// array is kept for the next flush. (Called on the field, not a local,
	// so that nothing escapes per flush.)
	vec := w.vec
	_, err := w.vec.WriteTo(w.conn)
	w.vec = vec
	if err != nil {
		// The whole batch is lost: the bytes never left the NIC, so every
		// pending frame's charge, budget and inflight slot come back.
		w.unwind()
		w.err = err
		_ = w.conn.Close()
		return err
	}
	w.net.io.writes.Add(1)
	w.net.io.bytesOut.Add(uint64(n))
	w.reset()
	return nil
}

// unwind returns every pending frame's charge and budget, all copies of
// it, and its inflight slot, and empties the writer.
func (w *connWriter) unwind() {
	for _, f := range w.frames {
		w.net.inflight.Add(-1)
		w.net.faults.refund(f.from, int(f.copies), f.size)
	}
	w.reset()
}

// fail marks the writer dead without a write (the mux dropped the
// connection), unwinding anything still pending.
func (w *connWriter) fail(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = err
	}
	w.unwind()
}
