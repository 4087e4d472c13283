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

// Fuzz coverage for the two wire decoders — the TCP stream framer and the
// jumbo aggregate codec. The contract under fuzzing: arbitrary input may
// error, but must never panic, over-read (every yielded body stays inside
// the input), or fabricate lengths that disagree with the header.

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

// FuzzTCPFrameReader drives the stream decoder exactly as readLoop does:
// pull frames until error, unpacking jumbos, with every body bounds-
// checked against its header.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		defer fr.close()
		for i := 0; i < 1<<10; i++ {
			h, payload, err := fr.next()
			if err != nil {
				// Acceptable terminal states only: clean EOF between
				// frames, truncation inside one, or a framing violation.
				if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, errBadFrame) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			if len(payload) != h.n {
				t.Fatalf("header claims %d bytes, got %d", h.n, len(payload))
			}
			if h.kind == kindJumbo {
				_ = decodeJumbo(payload, h.to, func(sh frameHeader, body []byte) error {
					if len(body) != sh.n {
						t.Fatalf("sub-frame header claims %d bytes, got %d", sh.n, len(body))
					}
					return nil
				})
			}
		}
	})
}

// FuzzJumboDecode hits the aggregate codec directly with an arbitrary
// destination id.
func FuzzJumboDecode(f *testing.F) {
	for _, seed := range frameCorpus() {
		f.Add(seed, uint32(2))
	}
	f.Fuzz(func(t *testing.T, data []byte, to uint32) {
		_ = decodeJumbo(data, model.NodeID(to), func(h frameHeader, body []byte) error {
			if len(body) != h.n {
				t.Fatalf("sub-frame header claims %d bytes, got %d", h.n, len(body))
			}
			if h.kind == kindJumbo {
				t.Fatal("nested jumbo escaped the decoder")
			}
			if model.NodeID(to) != h.to {
				t.Fatalf("misaddressed sub-frame for %v escaped the decoder on %v's connection", h.to, to)
			}
			return nil
		})
	})
}

// TestFrameDecoderRejections pins the decoders' verdicts on the corpus's
// canonical violations — the deterministic core the fuzzers explore
// around.
func TestFrameDecoderRejections(t *testing.T) {
	// Truncation inside a frame is ErrUnexpectedEOF, not a clean EOF.
	fr := newFrameReader(bytes.NewReader(buildFrame(1, 2, 3, []byte("truncated"))[:_tcpFrameHeader+4]))
	defer fr.close()
	if _, _, err := fr.next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("mid-frame truncation: got %v, want %v", err, io.ErrUnexpectedEOF)
	}

	// A length prefix past MaxTCPPayload errors before any allocation.
	oversize := make([]byte, _tcpFrameHeader)
	putFrameHeader(oversize, 1, 2, 3, MaxTCPPayload+1)
	fr2 := newFrameReader(bytes.NewReader(oversize))
	defer fr2.close()
	if _, _, err := fr2.next(); !errors.Is(err, errBadFrame) {
		t.Fatalf("oversized length: got %v, want errBadFrame", err)
	}

	jumboCases := map[string][]byte{
		"empty":        {},
		"nested":       buildJumbo(2, buildJumbo(2, buildFrame(1, 2, 3, []byte("x"))))[_tcpFrameHeader:],
		"misaddressed": buildJumbo(2, buildFrame(1, 7, 3, []byte("y")))[_tcpFrameHeader:],
		"truncated":    buildJumbo(2, buildFrame(1, 2, 3, []byte("zzzz")))[_tcpFrameHeader : _tcpFrameHeader+_tcpFrameHeader+2],
	}
	for name, payload := range jumboCases {
		if err := decodeJumbo(payload, 2, func(frameHeader, []byte) error { return nil }); !errors.Is(err, errBadFrame) {
			t.Errorf("jumbo %s: got %v, want errBadFrame", name, err)
		}
	}
}
