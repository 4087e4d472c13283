package wire

import (
	"math/rand"
	"testing"
)

// unmarshal returns a fresh message decoded from b, or nil and the error.
func unmarshal[M any, P interface {
	*M
	Decode([]byte) error
}](b []byte) (P, error) {
	m := P(new(M))
	if err := m.Decode(b); err != nil {
		return nil, err
	}
	return m, nil
}

// decoders enumerates every message decoder.
var decoders = map[string]func([]byte) (Message, error){
	"KeyRequest":  func(b []byte) (Message, error) { return unmarshal[KeyRequest](b) },
	"KeyResponse": func(b []byte) (Message, error) { return unmarshal[KeyResponse](b) },
	"Serve":       func(b []byte) (Message, error) { return UnmarshalServe(b) },
	"Attestation": func(b []byte) (Message, error) { return unmarshal[Attestation](b) },
	"Ack":         func(b []byte) (Message, error) { return unmarshal[Ack](b) },
	"AttForward":  func(b []byte) (Message, error) { return unmarshal[AttForward](b) },
	"HashShare":   func(b []byte) (Message, error) { return unmarshal[HashShare](b) },
	"AckRelay":    func(b []byte) (Message, error) { return unmarshal[AckRelay](b) },
	"NodeDigest":  func(b []byte) (Message, error) { return unmarshal[NodeDigest](b) },
	"Accusation":  func(b []byte) (Message, error) { return unmarshal[Accusation](b) },
	"Probe":       func(b []byte) (Message, error) { return unmarshal[Probe](b) },
	"Nack":        func(b []byte) (Message, error) { return unmarshal[Nack](b) },
	"AckRequest":  func(b []byte) (Message, error) { return unmarshal[AckRequest](b) },
	"AckExhibit":  func(b []byte) (Message, error) { return unmarshal[AckExhibit](b) },
}

// TestDecodersSurviveRandomBytes throws random garbage at every decoder:
// they must reject (or in rare coincidences accept) without panicking or
// over-allocating — a Byzantine peer cannot crash a node.
func TestDecodersSurviveRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, dec := range decoders {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 500; trial++ {
				n := rng.Intn(300)
				buf := make([]byte, n)
				rng.Read(buf)
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("panic on %d random bytes: %v", n, p)
						}
					}()
					_, _ = dec(buf)
				}()
			}
		})
	}
}

// TestDecodersSurviveBitFlips mutates valid encodings bit by bit: every
// mutation must decode cleanly or error, never panic.
func TestDecodersSurviveBitFlips(t *testing.T) {
	valid := map[string][]byte{
		"KeyRequest": (&KeyRequest{Round: 3, From: 1, To: 2, Sig: []byte("sig")}).Marshal(),
		"Serve":      mkServe().Marshal(),
		"HashShare": (&HashShare{Round: 1, From: 2, Monitored: 3, Pred: 4,
			HExpLifted: []byte{1}, HFwdLifted: []byte{2},
			AckBytes: []byte("ack"), Sig: []byte("s")}).Marshal(),
		"AckExhibit": (&AckExhibit{Round: 1, From: 2, Succ: 3,
			AckBytes: []byte("a"), Sig: []byte("s")}).Marshal(),
	}
	for name, enc := range valid {
		dec := decoders[name]
		t.Run(name, func(t *testing.T) {
			for i := 0; i < len(enc); i++ {
				for _, bit := range []byte{0x01, 0x80} {
					mut := append([]byte(nil), enc...)
					mut[i] ^= bit
					func() {
						defer func() {
							if p := recover(); p != nil {
								t.Fatalf("panic flipping byte %d: %v", i, p)
							}
						}()
						_, _ = dec(mut)
					}()
				}
			}
		})
	}
}

// TestHugeDeclaredLengthRejectedQuickly: a tiny message claiming a massive
// field must fail fast without allocating the claimed size.
func TestHugeDeclaredLengthRejectedQuickly(t *testing.T) {
	w := NewWriter()
	w.U8(KindServe)
	w.U64(1)       // round
	w.U32(1)       // from
	w.U32(2)       // to
	w.U32(1 << 30) // absurd KPrev length
	if _, err := UnmarshalServe(w.Finish()); err == nil {
		t.Fatal("absurd length accepted")
	}
}
