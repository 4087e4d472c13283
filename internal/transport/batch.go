package transport

import (
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/model"
)

// Per-connection write batching. Frames enqueue into a connection's
// writer and leave the process in one syscall per flush: two or more
// pending frames are wrapped into a single jumbo frame (kindJumbo) whose
// payload is the back-to-back pending buffer — no re-copy, the jumbo
// header is reserved up front — and the receive side unpacks it
// transparently. The round engine flushes at the phase barriers it
// already owns (BeginRound's backlog drain, every DeliverAll pass), which
// is what makes "≤ 1 flush per connection per engine phase" hold; direct
// (wall-clock) mode flushes every Send, preserving the live deployment's
// latency profile.

// maxBatchBytes bounds a writer's pending buffer; a phase that queues
// more than this to one destination flushes mid-phase rather than grow
// without bound.
const maxBatchBytes = 256 << 10

// IOStats counts the transport's actual wire operations — syscalls and
// frames, not the HeaderBytes accounting model — so benchmarks can report
// bytes-per-syscall and tests can assert the batching invariant.
type IOStats struct {
	FramesOut uint64 // logical frames enqueued for the wire
	FramesIn  uint64 // logical frames decoded off the wire
	Writes    uint64 // socket write syscalls (flushes with data)
	Reads     uint64 // socket read syscalls that returned data
	BytesOut  uint64 // bytes handed to write syscalls
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

// frameMeta is the per-pending-frame bookkeeping a flush failure needs to
// unwind: who to uncharge and by how much, and the inflight slot to
// return.
type frameMeta struct {
	from model.NodeID
	size uint64
}

// connWriter coalesces outbound frames for one connection. All access is
// under mu; the flush syscall itself runs under mu too, serialising
// writers to a connection exactly as the pre-batching code serialised
// per-frame writes.
type connWriter struct {
	net  *TCPNet
	conn net.Conn

	mu    sync.Mutex
	buf   []byte // reserved jumbo header + encoded pending frames
	metas []frameMeta
	to    model.NodeID // common destination of the pending frames
	err   error        // sticky: the connection is dead
}

func newConnWriter(t *TCPNet, conn net.Conn) *connWriter {
	w := &connWriter{net: t, conn: conn}
	w.reset()
	return w
}

// reset empties the pending buffer, keeping the jumbo header slot.
func (w *connWriter) reset() {
	w.buf = append(w.buf[:0], make([]byte, _tcpFrameHeader)...)
	w.metas = w.metas[:0]
}

// enqueue appends one admitted, charged frame. The caller has already
// raised inflight; on a sticky-dead connection (or a mid-phase overflow
// flush failure) the frame is unwound here and the error returned.
func (w *connWriter) enqueue(from, to model.NodeID, kind uint8, payload []byte, size uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		w.net.inflight.Add(-1)
		w.net.unchargeSend(from, size)
		return w.err
	}
	var hdr [_tcpFrameHeader]byte
	putFrameHeader(hdr[:], from, to, kind, len(payload))
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, payload...)
	w.metas = append(w.metas, frameMeta{from: from, size: size})
	w.to = to
	w.net.io.framesOut.Add(1)
	if len(w.buf) >= maxBatchBytes {
		if err := w.flushLocked(); err != nil {
			return err
		}
	}
	return nil
}

// flush writes the pending frames in one syscall and returns the sticky
// connection error, if any.
func (w *connWriter) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

func (w *connWriter) flushLocked() error {
	if len(w.metas) == 0 {
		return w.err
	}
	var out []byte
	if len(w.metas) == 1 {
		out = w.buf[_tcpFrameHeader:] // single frame goes out as itself
	} else {
		putFrameHeader(w.buf[:_tcpFrameHeader], 0, w.to, kindJumbo, len(w.buf)-_tcpFrameHeader)
		out = w.buf
		w.net.io.jumbo.Add(1)
	}
	_, err := w.conn.Write(out)
	if err != nil {
		// The whole batch is lost: the bytes never left the NIC, so every
		// pending frame's charge, budget and inflight slot come back.
		for _, m := range w.metas {
			w.net.inflight.Add(-1)
			w.net.unchargeSend(m.from, m.size)
		}
		w.err = err
		w.reset()
		_ = w.conn.Close()
		return err
	}
	w.net.io.writes.Add(1)
	w.net.io.bytesOut.Add(uint64(len(out)))
	w.reset()
	return nil
}

// fail marks the writer dead without a write (the mux dropped the
// connection), unwinding anything still pending.
func (w *connWriter) fail(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = err
	}
	for _, m := range w.metas {
		w.net.inflight.Add(-1)
		w.net.unchargeSend(m.from, m.size)
	}
	w.reset()
}
