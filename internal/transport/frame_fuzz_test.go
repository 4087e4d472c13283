package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/model"
	"repro/internal/wire"
)

// Fuzz coverage for the TCP stream framer, which also unpacks jumbo
// aggregates one sub-frame at a time. The contract under fuzzing:
// arbitrary input may error, but must never panic, over-read, fabricate
// lengths that disagree with the header, or yield a frame for an id the
// listener does not host.

// buildFrame encodes one ordinary frame.
func buildFrame(from, to model.NodeID, kind uint8, payload []byte) []byte {
	b := make([]byte, _tcpFrameHeader+len(payload))
	putFrameHeader(b, from, to, kind, len(payload))
	copy(b[_tcpFrameHeader:], payload)
	return b
}

// buildJumbo wraps pre-encoded frames into a jumbo addressed to `to`.
func buildJumbo(to model.NodeID, frames ...[]byte) []byte {
	var body []byte
	for _, f := range frames {
		body = append(body, f...)
	}
	b := make([]byte, _tcpFrameHeader, _tcpFrameHeader+len(body))
	putFrameHeader(b, 0, to, kindJumbo, len(body))
	return append(b, body...)
}

// frameCorpus is the shared seed set: valid streams and every structural
// violation the decoders must reject.
func frameCorpus() [][]byte {
	oversize := make([]byte, _tcpFrameHeader)
	putFrameHeader(oversize, 1, 2, 3, MaxTCPPayload+1)
	negative := make([]byte, _tcpFrameHeader)
	putFrameHeader(negative, 1, 2, 3, 0)
	binary.BigEndian.PutUint32(negative[9:], 0xFFFFFFFF)
	return [][]byte{
		{},
		bytes.Repeat([]byte{0x00}, 5),
		buildFrame(1, 2, 3, []byte("hello")),
		buildFrame(1, 2, 3, nil),
		buildJumbo(2, buildFrame(1, 2, 3, []byte("a")), buildFrame(4, 2, 5, []byte("bb"))),
		buildJumbo(2, buildJumbo(2, buildFrame(1, 2, 3, []byte("x")))), // nested
		buildJumbo(2, buildFrame(1, 7, 3, []byte("misaddressed"))),
		buildFrame(1, 2, 3, []byte("truncated"))[:_tcpFrameHeader+4],
		oversize,
		negative,
		append(buildFrame(1, 2, 3, []byte("ok")), 0xDE, 0xAD), // trailing garbage
	}
}

// hostsOf is a listener's hosting predicate for a fixed set of ids.
func hostsOf(ids ...model.NodeID) func(model.NodeID) bool {
	return func(id model.NodeID) bool {
		for _, h := range ids {
			if h == id {
				return true
			}
		}
		return false
	}
}

// readAll drives a frame reader over stream exactly as readLoop does:
// pull frames until error, checking what every yielded frame may be. It
// returns the bytes the yielded frames occupy on the wire (headers
// included, jumbo headers not) and the terminal error.
func readAll(t *testing.T, stream []byte, hosts func(model.NodeID) bool) (int, error) {
	t.Helper()
	fr := newFrameReader(bytes.NewReader(stream), hosts)
	defer fr.close()
	consumed := 0
	for i := 0; ; i++ {
		h, payload, err := fr.next()
		if err != nil {
			// Acceptable terminal states only: clean EOF between
			// frames, truncation inside one, or a framing violation.
			if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, errBadFrame) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return consumed, err
		}
		if len(payload) != h.n {
			t.Fatalf("header claims %d bytes, got %d", h.n, len(payload))
		}
		if h.kind == kindJumbo {
			t.Fatal("a jumbo escaped the reader instead of being unpacked")
		}
		if !hosts(h.to) {
			t.Fatalf("a frame for %v, which the listener does not host, escaped the reader", h.to)
		}
		consumed += _tcpFrameHeader + h.n
		if consumed > len(stream) || i > len(stream) {
			t.Fatalf("the reader yielded %d bytes of frames from a %d-byte stream", consumed, len(stream))
		}
	}
}

// FuzzTCPFrameReader drives the stream decoder over arbitrary streams on
// a listener hosting ids 2 and 4, jumbos included.
func FuzzTCPFrameReader(f *testing.F) {
	for _, seed := range frameCorpus() {
		f.Add(seed)
	}
	// Payloads whose frames sit at each arena size class's boundary
	// (header included, exactly, one over) and one past the largest class.
	for k := 0; k < 4; k++ {
		class := wire.ArenaSize << k
		for _, n := range []int{class - _tcpFrameHeader, class, class + 1} {
			f.Add(buildFrame(1, 2, 3, bytes.Repeat([]byte{byte(k)}, n)))
		}
	}
	f.Add(buildFrame(1, 2, 3, make([]byte, 256<<10+1)))
	// Mixed-destination jumbos, as one connection to a shared listener
	// carries them: valid, with a sub-frame for an id the listener does
	// not host, followed by a frame, and larger than the default arena.
	f.Add(buildJumbo(4, buildFrame(1, 2, 3, []byte("a")), buildFrame(1, 4, 3, []byte("b")), buildFrame(3, 2, 5, nil)))
	f.Add(buildJumbo(2, buildFrame(1, 4, 3, []byte("a")), buildFrame(1, 7, 3, []byte("stray"))))
	f.Add(append(buildJumbo(2, buildFrame(1, 4, 3, []byte("a")), buildFrame(5, 2, 3, []byte("b"))), buildFrame(1, 4, 3, []byte("c"))...))
	var big [][]byte
	for i := 0; len(big)*(_tcpFrameHeader+700) < 2*wire.ArenaSize; i++ {
		big = append(big, buildFrame(model.NodeID(i), model.NodeID(2+2*(i%2)), 3, bytes.Repeat([]byte{byte(i)}, 700)))
	}
	f.Add(buildJumbo(2, big...))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = readAll(t, data, hostsOf(2, 4))
	})
}

// FuzzJumboDecode hands the reader an arbitrary jumbo body, wrapped in a
// jumbo header addressed to an arbitrary id, on a listener hosting only
// that id. Beyond readAll's checks: an empty jumbo is rejected, and a
// jumbo the reader unpacks to a clean end is exactly the frames it
// yielded — no byte of its body is skipped.
func FuzzJumboDecode(f *testing.F) {
	for _, seed := range frameCorpus() {
		f.Add(seed, uint32(2))
	}
	f.Fuzz(func(t *testing.T, data []byte, to uint32) {
		if len(data) > MaxTCPPayload {
			return
		}
		stream := buildJumbo(model.NodeID(to), data)
		consumed, err := readAll(t, stream, hostsOf(model.NodeID(to)))
		if len(data) == 0 && !errors.Is(err, errBadFrame) {
			t.Fatalf("empty jumbo: got %v, want errBadFrame", err)
		}
		if err == io.EOF && consumed != len(data) {
			t.Fatalf("a %d-byte jumbo body ended cleanly after %d bytes of frames", len(data), consumed)
		}
	})
}

// TestFrameDecoderRejections pins the reader's verdicts on the corpus's
// canonical violations — the deterministic core the fuzzers explore
// around.
func TestFrameDecoderRejections(t *testing.T) {
	// Truncation inside a frame is ErrUnexpectedEOF, not a clean EOF.
	fr := newFrameReader(bytes.NewReader(buildFrame(1, 2, 3, []byte("truncated"))[:_tcpFrameHeader+4]), hostsOf(2))
	defer fr.close()
	if _, _, err := fr.next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("mid-frame truncation: got %v, want %v", err, io.ErrUnexpectedEOF)
	}

	// A length prefix past MaxTCPPayload errors before any allocation.
	oversize := make([]byte, _tcpFrameHeader)
	putFrameHeader(oversize, 1, 2, 3, MaxTCPPayload+1)
	fr2 := newFrameReader(bytes.NewReader(oversize), hostsOf(2))
	defer fr2.close()
	if _, _, err := fr2.next(); !errors.Is(err, errBadFrame) {
		t.Fatalf("oversized length: got %v, want errBadFrame", err)
	}

	// A frame for an id the listener never hosted drops the connection.
	if _, err := readAll(t, buildFrame(1, 7, 3, []byte("y")), hostsOf(2)); !errors.Is(err, errBadFrame) {
		t.Fatalf("misaddressed frame: got %v, want errBadFrame", err)
	}

	// Every jumbo case is wrapped in a well-formed jumbo header for id 2
	// and read by a listener hosting ids 2 and 4.
	subOversize := make([]byte, _tcpFrameHeader)
	putFrameHeader(subOversize, 1, 2, 3, MaxTCPPayload+1)
	jumboCases := map[string][]byte{
		"empty":        {},
		"nested":       buildJumbo(2, buildJumbo(2, buildFrame(1, 2, 3, []byte("x"))))[_tcpFrameHeader:],
		"misaddressed": buildJumbo(2, buildFrame(1, 4, 3, []byte("ok")), buildFrame(1, 7, 3, []byte("y")))[_tcpFrameHeader:],
		"truncated":    buildJumbo(2, buildFrame(1, 2, 3, []byte("zzzz")))[_tcpFrameHeader : _tcpFrameHeader+_tcpFrameHeader+2],
		"short header": append(buildFrame(1, 2, 3, []byte("ok")), 0, 0, 0, 0, 0),
		"overrun":      append(buildFrame(1, 2, 3, []byte("ok")), buildFrame(1, 4, 3, []byte("longer than its container"))[:_tcpFrameHeader+3]...),
		"oversized":    subOversize,
	}
	for name, body := range jumboCases {
		if _, err := readAll(t, buildJumbo(2, body), hostsOf(2, 4)); !errors.Is(err, errBadFrame) {
			t.Errorf("jumbo %s: got %v, want errBadFrame", name, err)
		}
	}

	// A stream that ends inside a jumbo, between two of its sub-frames, is
	// a truncation too.
	whole := buildJumbo(2, buildFrame(1, 2, 3, []byte("a")), buildFrame(1, 4, 3, []byte("b")))
	if _, err := readAll(t, whole[:len(whole)-_tcpFrameHeader-1], hostsOf(2, 4)); err != io.ErrUnexpectedEOF {
		t.Fatalf("stream cut inside a jumbo: got %v, want %v", err, io.ErrUnexpectedEOF)
	}
	if n, err := readAll(t, whole, hostsOf(2, 4)); err != io.EOF || n != len(whole)-_tcpFrameHeader {
		t.Fatalf("mixed-destination jumbo: %d bytes of frames, %v", n, err)
	}
}

// TestFrameReaderUnpacksJumboInDefaultArenas: a jumbo several times the
// default arena, of sub-frames for two ids, passes through default-size
// arenas — the reader never needs it contiguous — and every sub-frame
// arrives intact and in order.
func TestFrameReaderUnpacksJumboInDefaultArenas(t *testing.T) {
	body := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 500+i%300) }
	var frames [][]byte
	for i, size := 0, 0; size < 8*wire.ArenaSize; i++ {
		frames = append(frames, buildFrame(1, model.NodeID(2+2*(i%2)), 3, body(i)))
		size += len(frames[i])
	}
	jumbo := buildJumbo(2, frames...)
	fr := newFrameReader(&chunkReader{chunks: [][]byte{jumbo[:len(jumbo)/3], jumbo[len(jumbo)/3:]}}, hostsOf(2, 4))
	defer fr.close()
	for i := range frames {
		h, payload, err := fr.next()
		if err != nil || h.to != model.NodeID(2+2*(i%2)) || !bytes.Equal(payload, body(i)) {
			t.Fatalf("sub-frame %d: to %v, %v", i, h.to, err)
		}
		if len(fr.arena.Bytes()) != wire.ArenaSize {
			t.Fatalf("sub-frame %d of a %d-byte jumbo was read into a %d-byte arena", i, len(jumbo), len(fr.arena.Bytes()))
		}
	}
	if _, _, err := fr.next(); err != io.EOF {
		t.Fatalf("after the jumbo: %v, want a clean EOF", err)
	}
}
