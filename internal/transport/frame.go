package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/model"
	"repro/internal/wire"
)

// Stream framing shared by the batched TCP paths: the 13-byte
// length-prefixed frame header, the jumbo aggregate that coalesces one
// flush worth of small frames into a single wire frame, and the
// arena-backed frame reader that replaces per-frame allocation on the
// receive side.

// frame layout: from(4) to(4) kind(1) len(4) payload.
const _tcpFrameHeader = 4 + 4 + 1 + 4

// MaxTCPPayload bounds a single frame to keep a malformed peer from
// forcing a huge allocation. Jumbo frames are bounded by the same limit;
// their sub-frames are additionally bounded by what fits inside.
const MaxTCPPayload = 16 << 20

// kindJumbo marks a frame whose payload is a back-to-back sequence of
// ordinary frames, written as one buffer by a connection writer's flush
// and unpacked transparently on the receive side. The kind value lives in
// a transport-reserved band (>= 240) that no protocol plane uses (PAG
// owns 1..17, AcTinG 101..106, RAC 120); a jumbo's from field is the
// batching sender, its to field the common destination every sub-frame
// must repeat. Jumbos never nest.
const kindJumbo uint8 = 255

// frameHeader is one decoded 13-byte prefix.
type frameHeader struct {
	from model.NodeID
	to   model.NodeID
	kind uint8
	n    int // payload length
}

// putFrameHeader encodes a header into b, which must hold
// _tcpFrameHeader bytes.
func putFrameHeader(b []byte, from, to model.NodeID, kind uint8, n int) {
	binary.BigEndian.PutUint32(b[0:], uint32(from))
	binary.BigEndian.PutUint32(b[4:], uint32(to))
	b[8] = kind
	binary.BigEndian.PutUint32(b[9:], uint32(n))
}

// parseFrameHeader decodes a 13-byte prefix. It performs no validation
// beyond field extraction; callers check n and to.
func parseFrameHeader(b []byte) frameHeader {
	return frameHeader{
		from: model.NodeID(binary.BigEndian.Uint32(b[0:])),
		to:   model.NodeID(binary.BigEndian.Uint32(b[4:])),
		kind: b[8],
		n:    int(binary.BigEndian.Uint32(b[9:])),
	}
}

// errBadFrame reports a framing-protocol violation; the connection that
// produced it is dropped.
var errBadFrame = errors.New("transport: malformed frame")

// decodeJumbo walks the sub-frames packed inside a jumbo payload and
// hands each header+body to fn, zero-copy (bodies alias payload). Every
// structural violation — truncated header, truncated body, oversized
// length, a nested jumbo, trailing garbage — is an error, never a panic
// or an over-read; to is the connection's owner and every sub-frame must
// be addressed to it.
func decodeJumbo(payload []byte, to model.NodeID, fn func(frameHeader, []byte) error) error {
	if len(payload) == 0 {
		return fmt.Errorf("%w: empty jumbo", errBadFrame)
	}
	for off := 0; off < len(payload); {
		if len(payload)-off < _tcpFrameHeader {
			return fmt.Errorf("%w: truncated sub-frame header", errBadFrame)
		}
		h := parseFrameHeader(payload[off:])
		off += _tcpFrameHeader
		if h.kind == kindJumbo {
			return fmt.Errorf("%w: nested jumbo", errBadFrame)
		}
		if h.to != to {
			return fmt.Errorf("%w: sub-frame for %v on %v's connection", errBadFrame, h.to, to)
		}
		if h.n < 0 || h.n > MaxTCPPayload || h.n > len(payload)-off {
			return fmt.Errorf("%w: sub-frame length %d exceeds container", errBadFrame, h.n)
		}
		if err := fn(h, payload[off:off+h.n]); err != nil {
			return err
		}
		off += h.n
	}
	return nil
}

// frameReader decodes length-prefixed frames from a stream with payloads
// sliced zero-copy out of pooled ref-counted arenas (wire.Arena). One
// fill read drains everything the kernel has buffered — many frames per
// syscall, the portable batch-receive path. A consumer that queues a
// payload retains the arena for it; the arena is recycled when the reader
// has moved on and the last such payload has been handled. A frame too
// large for the default arena moves the reader to a larger size class;
// once the reader has consumed everything it read, it trades that arena
// back for a default one, so an idle reader holds ArenaSize bytes.
type frameReader struct {
	src   io.Reader
	arena *wire.Arena
	buf   []byte
	r, w  int // unconsumed bytes live in buf[r:w]
}

func newFrameReader(src io.Reader) *frameReader {
	a := wire.GetArena(wire.ArenaSize)
	return &frameReader{src: src, arena: a, buf: a.Bytes()}
}

// next returns the next frame's header and its payload, which aliases the
// reader's current arena (fr.arena) and is valid until the following call
// unless the consumer retains that arena. Length and addressing validation
// is the caller's: next only bounds n against MaxTCPPayload.
func (fr *frameReader) next() (frameHeader, []byte, error) {
	if err := fr.ensure(_tcpFrameHeader); err != nil {
		return frameHeader{}, nil, err
	}
	h := parseFrameHeader(fr.buf[fr.r:])
	if h.n < 0 || h.n > MaxTCPPayload {
		return frameHeader{}, nil, fmt.Errorf("%w: frame length %d", errBadFrame, h.n)
	}
	if err := fr.ensure(_tcpFrameHeader + h.n); err != nil {
		// A stream that ends mid-frame is a truncation, not a clean EOF.
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return frameHeader{}, nil, err
	}
	fr.r += _tcpFrameHeader
	payload := fr.buf[fr.r : fr.r+h.n]
	fr.r += h.n
	return h, payload, nil
}

// ensure makes buf[r:r+n] valid, filling from src. When the current
// arena cannot hold the frame contiguously it switches to a fresh one,
// carrying the unconsumed tail over; the old arena returns to the pool
// once its queued payloads have been handled.
func (fr *frameReader) ensure(n int) error {
	if fr.r == fr.w && len(fr.buf) > wire.ArenaSize {
		// Nothing left unread on an arena sized for an earlier large
		// frame: go back to the default class before the next read.
		fr.arena.Release()
		fr.arena = wire.GetArena(wire.ArenaSize)
		fr.buf, fr.r, fr.w = fr.arena.Bytes(), 0, 0
	}
	for fr.w-fr.r < n {
		if fr.r+n > len(fr.buf) {
			fr.switchArena(n)
		}
		m, err := fr.src.Read(fr.buf[fr.w:])
		fr.w += m
		if err != nil && fr.w-fr.r < n {
			return err
		}
	}
	return nil
}

// switchArena moves the unconsumed tail into an arena that can hold n
// contiguous bytes (possibly the same one, compacted).
func (fr *frameReader) switchArena(n int) {
	pending := fr.w - fr.r
	if n <= len(fr.buf) && !fr.arena.Shared() {
		// Same arena, no payload of it still queued: compact in place.
		copy(fr.buf, fr.buf[fr.r:fr.w])
		fr.r, fr.w = 0, pending
		return
	}
	next := wire.GetArena(n)
	nb := next.Bytes()
	copy(nb, fr.buf[fr.r:fr.w])
	fr.arena.Release()
	fr.arena, fr.buf = next, nb
	fr.r, fr.w = 0, pending
}

// close releases the reader's hold on its arena.
func (fr *frameReader) close() { fr.arena.Release() }
