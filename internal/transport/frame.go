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
// owns 1..17, AcTinG 101..106, RAC 120); a jumbo's from field is 0 and
// its to field the destination of its last sub-frame. The sub-frames may
// be addressed to any ids the receiving listener hosts, since every id at
// one address shares the listener and the connections dialed to it.
// Jumbos never nest.
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

// frameReader decodes length-prefixed frames from a stream with payloads
// sliced zero-copy out of pooled ref-counted arenas (wire.Arena). One
// fill read drains everything the kernel has buffered — many frames per
// syscall, the portable batch-receive path. A consumer that queues a
// payload retains the arena for it; the arena is recycled when the reader
// has moved on and the last such payload has been handled. A frame too
// large for the default arena moves the reader to a larger size class;
// once the reader has consumed everything it read, it trades that arena
// back for a default one, so an idle reader holds ArenaSize bytes.
//
// A jumbo is unpacked in the stream, one sub-frame at a time: the reader
// consumes the jumbo's header and then yields its sub-frames as if they
// were ordinary frames, so only a sub-frame, never the whole jumbo, has
// to sit contiguously in an arena. A connection that carries a whole
// process's phase (one listener per address, tcp.go) writes jumbos of up
// to maxBatchBytes and beyond; they pass through default-size arenas.
type frameReader struct {
	src   io.Reader
	hosts func(model.NodeID) bool // the ids a frame may be addressed to
	arena *wire.Arena
	buf   []byte
	r, w  int // unconsumed bytes live in buf[r:w]
	jumbo int // bytes of the current jumbo's body not yet unpacked
}

func newFrameReader(src io.Reader, hosts func(model.NodeID) bool) *frameReader {
	a := wire.GetArena(wire.ArenaSize)
	return &frameReader{src: src, hosts: hosts, arena: a, buf: a.Bytes()}
}

// next returns the next frame's header and its payload, which aliases the
// reader's current arena (fr.arena) and is valid until the following call
// unless the consumer retains that arena. Inside a jumbo the frame is the
// next sub-frame; the jumbo itself is never returned. Every structural
// violation is an errBadFrame, never a panic or an over-read: a length
// past MaxTCPPayload, a frame or jumbo addressed to an id hosts refuses,
// an empty or nested jumbo, and a sub-frame whose header or body overruns
// its jumbo. A stream that ends inside a frame or a jumbo is
// io.ErrUnexpectedEOF, between frames io.EOF.
func (fr *frameReader) next() (frameHeader, []byte, error) {
	for {
		if fr.jumbo > 0 && fr.jumbo < _tcpFrameHeader {
			return frameHeader{}, nil, fmt.Errorf("%w: truncated sub-frame header", errBadFrame)
		}
		if err := fr.ensure(_tcpFrameHeader); err != nil {
			if err == io.EOF && fr.jumbo > 0 {
				err = io.ErrUnexpectedEOF
			}
			return frameHeader{}, nil, err
		}
		h := parseFrameHeader(fr.buf[fr.r:])
		if fr.jumbo > 0 {
			if h.kind == kindJumbo {
				return frameHeader{}, nil, fmt.Errorf("%w: nested jumbo", errBadFrame)
			}
			if h.n < 0 || h.n > fr.jumbo-_tcpFrameHeader {
				return frameHeader{}, nil, fmt.Errorf("%w: sub-frame length %d exceeds container", errBadFrame, h.n)
			}
		}
		if h.n < 0 || h.n > MaxTCPPayload {
			return frameHeader{}, nil, fmt.Errorf("%w: frame length %d", errBadFrame, h.n)
		}
		if !fr.hosts(h.to) {
			return frameHeader{}, nil, fmt.Errorf("%w: frame for %v, which this listener does not host", errBadFrame, h.to)
		}
		if h.kind == kindJumbo {
			if h.n == 0 {
				return frameHeader{}, nil, fmt.Errorf("%w: empty jumbo", errBadFrame)
			}
			fr.r += _tcpFrameHeader
			fr.jumbo = h.n
			continue
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
		if fr.jumbo > 0 {
			fr.jumbo -= _tcpFrameHeader + h.n
		}
		return h, payload, nil
	}
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
