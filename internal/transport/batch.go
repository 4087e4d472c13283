package transport

import (
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/model"
)

// Per-connection write batching. Frames enqueue into a connection's
// writer and leave the process in one write per flush: two or more
// pending frames are wrapped into a single jumbo frame (kindJumbo) and the
// receive side unpacks it transparently. The writer copies each frame,
// header and payload, into one contiguous batch buffer at enqueue, behind
// a reserved jumbo header slot, so Endpoint.Send keeps nothing its caller
// handed it (see DESIGN.md "Who owns a byte") and a sender may lend a
// pooled buffer. A flush is a single Write of that buffer: the jumbo
// header slot first, or the lone frame without it. The buffer keeps its
// capacity across flushes, so a steady phase allocates nothing. The net
// flushes at the phase boundaries its driver already calls (BeginRound's
// backlog drain, every DeliverAll or DeliverUntil pass), which is what
// makes "≤ 1 flush per connection per engine phase" hold.

// maxBatchBytes bounds a writer's pending bytes; a phase that queues more
// than this to one destination address flushes mid-phase rather than grow
// without bound. A frame larger than the bound never enters the buffer: it
// is written through from the caller's slice, behind what was pending. The
// buffer therefore holds less than maxBatchBytes plus one frame of at most
// maxBatchBytes, whatever a caller sends.
const maxBatchBytes = 256 << 10

// IOStats counts the transport's actual wire operations — syscalls and
// frames, not the HeaderBytes accounting model — so benchmarks can report
// bytes-per-syscall and tests can assert the batching invariant.
type IOStats struct {
	FramesOut uint64 // logical frames enqueued for the wire
	FramesIn  uint64 // logical frames decoded off the wire
	Writes    uint64 // write calls: one per flush with data, two per written-through frame
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

// pendingFrame is what a failed write must unwind for one frame in the
// batch buffer: who to refund, for how many copies of what size (the
// inflight slot to return is one per frame). copies shares from's word.
type pendingFrame struct {
	from   model.NodeID
	copies uint32
	size   uint64
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
	buf    []byte         // jumbo header slot, then every pending frame, header and payload
	frames []pendingFrame // one per frame in buf
	to     model.NodeID   // destination of the last pending frame, the jumbo's to
	err    error          // sticky: the connection is dead
	queued bool           // on the mux's pending list since the last FlushAll
}

func newConnWriter(cm *connMux, addr string, conn net.Conn) *connWriter {
	return &connWriter{net: cm.net, mux: cm, addr: addr, conn: conn, buf: make([]byte, _tcpFrameHeader)}
}

// reset empties the batch, keeping the jumbo header slot and the capacity.
func (w *connWriter) reset() {
	w.buf = w.buf[:_tcpFrameHeader]
	w.frames = w.frames[:0]
}

// appendHeader appends one frame header to the batch buffer.
func (w *connWriter) appendHeader(msg Message) {
	n := len(w.buf)
	w.buf = append(w.buf, make([]byte, _tcpFrameHeader)...)
	putFrameHeader(w.buf[n:], msg.From, msg.To, msg.Kind, len(msg.Payload))
}

// enqueue copies one admitted frame, whose copies admission charged, into
// the batch buffer; the writer keeps no reference to msg.Payload once it
// returns. The caller has already raised inflight; on a sticky-dead
// connection (or a failed mid-phase flush) the frame is unwound here and
// the error returned.
func (w *connWriter) enqueue(msg Message, copies int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	size := uint64(msg.WireSize())
	if w.err != nil {
		w.net.inflight.Add(-1)
		w.net.faults.refund(msg.From, copies, size)
		return w.err
	}
	w.net.io.framesOut.Add(1)
	if _tcpFrameHeader+len(msg.Payload) > maxBatchBytes {
		return w.writeThrough(msg, copies, size)
	}
	if !w.queued {
		w.queued = true
		w.mux.markPending(w)
	}
	w.appendHeader(msg)
	w.buf = append(w.buf, msg.Payload...)
	w.frames = append(w.frames, pendingFrame{from: msg.From, copies: uint32(copies), size: size})
	w.to = msg.To
	if len(w.buf) >= maxBatchBytes {
		return w.flushLocked()
	}
	return nil
}

// writeThrough puts a frame too large to batch on the wire before enqueue
// returns: it flushes what is pending, then writes the frame's header and
// its payload from the caller's slice. On failure the frame is unwound
// with the rest of the batch.
func (w *connWriter) writeThrough(msg Message, copies int, size uint64) error {
	err := w.flushLocked()
	if err == nil {
		w.appendHeader(msg)
		if _, err = w.conn.Write(w.buf[_tcpFrameHeader:]); err == nil {
			_, err = w.conn.Write(msg.Payload)
		}
		w.reset()
		if err != nil {
			w.die(err)
		}
	}
	if err != nil {
		w.net.inflight.Add(-1)
		w.net.faults.refund(msg.From, copies, size)
		return err
	}
	w.net.io.writes.Add(2)
	w.net.io.bytesOut.Add(uint64(_tcpFrameHeader + len(msg.Payload)))
	return nil
}

// flushQueued writes the pending frames in one write for the mux's
// FlushAll pass, which has taken the writer off its pending list, and
// returns the sticky connection error, if any.
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
	out := w.buf
	if len(w.frames) == 1 {
		out = out[_tcpFrameHeader:] // a single frame goes out as itself
	} else {
		putFrameHeader(out, 0, w.to, kindJumbo, len(out)-_tcpFrameHeader)
		w.net.io.jumbo.Add(1)
	}
	if _, err := w.conn.Write(out); err != nil {
		// The whole batch is lost: the bytes never left the NIC, so every
		// pending frame's charge, budget and inflight slot come back.
		w.die(err)
		return err
	}
	w.net.io.writes.Add(1)
	w.net.io.bytesOut.Add(uint64(len(out)))
	w.reset()
	return nil
}

// die unwinds the batch after a failed write, records the sticky error
// and closes the connection.
func (w *connWriter) die(err error) {
	w.unwind()
	if w.err == nil {
		w.err = err
	}
	_ = w.conn.Close()
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
