package wire

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/update"
)

func randomServe(rnd *rand.Rand) *Serve {
	m := &Serve{
		Round: model.Round(rnd.Intn(1000)),
		From:  model.NodeID(rnd.Intn(64)),
		To:    model.NodeID(rnd.Intn(64)),
		KPrev: randBytes(rnd, 1+rnd.Intn(32)),
		Sig:   randBytes(rnd, 1+rnd.Intn(64)),
	}
	for i := 0; i < rnd.Intn(4); i++ {
		m.Full = append(m.Full, ServedUpdate{
			Update: update.Update{
				ID:       model.UpdateID{Stream: model.StreamID(rnd.Intn(4)), Seq: rnd.Uint64()},
				Deadline: model.Round(rnd.Intn(1000)),
				Payload:  randBytes(rnd, 1+rnd.Intn(47)),
				SrcSig:   randBytes(rnd, 1+rnd.Intn(32)),
			},
			Count: uint64(1 + rnd.Intn(5)),
		})
	}
	for i := 0; i < rnd.Intn(4); i++ {
		m.Refs = append(m.Refs, ServedRef{
			ID:    model.UpdateID{Stream: model.StreamID(rnd.Intn(4)), Seq: rnd.Uint64()},
			Count: uint64(1 + rnd.Intn(5)),
		})
	}
	return m
}

func randBytes(rnd *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rnd.Read(b)
	return b
}

// signingBytes is the body encoding a signature covers, built the slow
// way (fresh writer) as the reference for the pooled path.
func signingBytes(m BodyMessage) []byte {
	w := NewWriter()
	m.body(w)
	return w.Finish()
}

// tagSigner is a stand-in identity: its signature is a fixed-width digest
// of the message, appended in place like a pki identity's.
type tagSigner struct{ fail bool }

func (s tagSigner) SignAppend(dst, msg []byte) ([]byte, error) {
	if s.fail {
		return dst, errors.New("no key")
	}
	sum := sha256.Sum256(msg)
	return append(dst, sum[:]...), nil
}

// Seal — one encoding in a pooled writer, signed in place — must agree
// byte-for-byte with the heap path (sign the body, set Sig, Marshal)
// across randomized messages, including when the same pooled writer is
// reused back-to-back (no state leaks between encodes).
func TestPooledEncodingMatchesHeap(t *testing.T) {
	rnd := rand.New(rand.NewSource(41))
	w := GetWriter()
	defer w.Release()
	for i := 0; i < 200; i++ {
		m := randomServe(rnd)
		m.Sig, _ = tagSigner{}.SignAppend(nil, signingBytes(m))
		got, err := Seal(w, m, tagSigner{})
		if err != nil || !bytes.Equal(got, m.Marshal()) {
			t.Fatalf("iteration %d: Seal diverges from Marshal (err %v)", i, err)
		}
		if !bytes.Equal(SignedPrefix(got, m.Sig), signingBytes(m)) {
			t.Fatalf("iteration %d: SignedPrefix is not the signed body", i)
		}
	}
}

// Seal must cover every message kind: for each, the sealed bytes decode
// back to the message with the signer's signature in its Sig field.
func TestSealMatchesMarshal(t *testing.T) {
	w := GetWriter()
	defer w.Release()
	for _, m := range sampleMessages() {
		want, _ := tagSigner{}.SignAppend(nil, signingBytes(m))
		got, err := Seal(w, m, tagSigner{})
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if !bytes.Equal(SignedPrefix(got, want), signingBytes(m)) || !bytes.HasSuffix(got, want) {
			t.Fatalf("%T: sealed form is not body + signature field", m)
		}
		dec, err := decoderOf(m)(got)
		if err != nil {
			t.Fatalf("%T: sealed form does not decode: %v", m, err)
		}
		if !bytes.Equal(dec.Marshal(), got) {
			t.Fatalf("%T: decoded message re-marshals differently", m)
		}
	}
}

// A failed signature leaves no half-written signature field behind.
func TestSealSignerError(t *testing.T) {
	w := GetWriter()
	defer w.Release()
	m := &KeyRequest{Round: 1, From: 2, To: 3}
	if _, err := Seal(w, m, tagSigner{fail: true}); err == nil {
		t.Fatal("signer error swallowed")
	}
	if !bytes.Equal(w.Finish(), signingBytes(m)) {
		t.Fatal("writer holds more than the unsigned body after a failed Sign")
	}
}

// The pool must be safe under concurrent get/encode/release and must hand
// back writers whose previous contents never bleed into a new encode.
func TestWriterPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				m := randomServe(rnd)
				w := GetWriter()
				got, err := Seal(w, m, tagSigner{})
				if err != nil || !bytes.Equal(SignedPrefix(got, got[len(got)-sha256.Size:]), signingBytes(m)) {
					t.Error("pooled encoding diverges under concurrency")
					w.Release()
					return
				}
				w.Release()
			}
		}(int64(g))
	}
	wg.Wait()
}

// Oversized writers must not return to the pool, so one huge Serve cannot
// pin a multi-megabyte buffer for the session's lifetime.
func TestOversizedWriterNotPooled(t *testing.T) {
	w := NewWriter()
	w.Bytes(make([]byte, maxPooledWriter+1))
	if cap(w.buf) <= maxPooledWriter {
		t.Skip("writer did not grow past the cap")
	}
	w.Release() // must drop it, and must not panic
	g := GetWriter()
	defer g.Release()
	g.U64(7)
	if len(g.buf) != 8 {
		t.Fatal("writer from pool unusable after oversized release")
	}
}

// Benchmark the pooled encode path against the heap Marshal path for a
// typical Serve. The pooled path should run at zero allocations per op
// once the pool is warm.
func BenchmarkServeEncode(b *testing.B) {
	rnd := rand.New(rand.NewSource(7))
	m := randomServe(rnd)
	m.Full = append(m.Full, ServedUpdate{
		Update: update.Update{
			ID:      model.UpdateID{Stream: 1, Seq: 99},
			Payload: make([]byte, 256),
			SrcSig:  make([]byte, 64),
		},
		Count: 1,
	})
	b.Run("heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = m.Marshal()
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := GetWriter()
			_, _ = Seal(w, m, tagSigner{})
			w.Release()
		}
	})
}

func BenchmarkServeDecode(b *testing.B) {
	rnd := rand.New(rand.NewSource(7))
	m := randomServe(rnd)
	raw := m.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalServe(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// xorOpener is a stand-in identity whose "ciphertext" is the plaintext
// XORed with 0x5A; an empty ciphertext is rejected.
type xorOpener struct{}

func (xorOpener) DecryptAppend(dst, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) == 0 {
		return nil, errors.New("empty ciphertext")
	}
	for _, b := range ciphertext {
		dst = append(dst, b^0x5A)
	}
	return dst, nil
}

// Open is Seal's receiving counterpart: the plaintext lands in the
// writer's buffer, replacing what it held, and a failure leaves no slice.
func TestWriterOpen(t *testing.T) {
	w := GetWriter()
	defer w.Release()
	w.Bytes([]byte("left over from a previous use"))
	ct := []byte{'h' ^ 0x5A, 'i' ^ 0x5A}
	plain, err := w.Open(xorOpener{}, ct)
	if err != nil || string(plain) != "hi" {
		t.Fatalf("Open = %q, %v", plain, err)
	}
	if &plain[0] != &w.Finish()[0] || len(w.Finish()) != 2 {
		t.Fatal("the plaintext is not the writer's buffer")
	}
	if plain, err := w.Open(xorOpener{}, nil); err == nil || plain != nil {
		t.Fatalf("rejected ciphertext gave %q, %v", plain, err)
	}
}

// TestPoisonReleased: with the hook on, a view kept past Release — of a
// Writer, or of an arena past its last reference — reads poison whether or
// not the pool has reused the buffer; restoring turns it off again.
func TestPoisonReleased(t *testing.T) {
	restore := PoisonReleased()
	w := GetWriter()
	view, _ := w.Open(xorOpener{}, bytes.Repeat([]byte{0}, 64))
	w.Release()
	if !bytes.Equal(view, bytes.Repeat([]byte{0xDB}, 64)) {
		t.Fatalf("released buffer not poisoned: %x", view[:8])
	}
	// An arena is poisoned when its last reference goes, not before.
	a := GetArena(ArenaSize)
	payload := a.Bytes()[:64]
	copy(payload, bytes.Repeat([]byte{1}, 64))
	a.Retain()
	a.Release()
	if payload[0] != 1 {
		t.Fatal("arena poisoned while a payload still held it")
	}
	a.Release()
	if !bytes.Equal(payload, bytes.Repeat([]byte{0xDB}, 64)) {
		t.Fatalf("released arena not poisoned: %x", payload[:8])
	}
	restore()
	w = GetWriter()
	view, _ = w.Open(xorOpener{}, bytes.Repeat([]byte{0}, 64))
	w.Release()
	if view[0] == 0xDB {
		t.Fatal("poisoning survived its restore")
	}
}

// TestArenaOwnership: the read loop's reference plus one per payload
// handed on; the arena is shared exactly while a payload is outstanding.
func TestArenaOwnership(t *testing.T) {
	a := GetArena(ArenaSize)
	if a.Shared() {
		t.Fatal("fresh arena already shared")
	}
	a.Retain()
	a.Retain()
	if !a.Shared() {
		t.Fatal("arena with queued payloads not shared")
	}
	a.Release()
	if !a.Shared() {
		t.Fatal("one payload still outstanding")
	}
	a.Release()
	if a.Shared() {
		t.Fatal("arena still shared after the last payload was handled")
	}
	a.Release()
	for n, want := range map[int]int{1: ArenaSize, ArenaSize + 1: 2 * ArenaSize,
		maxPooledArena: maxPooledArena, maxPooledArena + 1: maxPooledArena + 1} {
		if got := GetArena(n); len(got.Bytes()) != want {
			t.Errorf("GetArena(%d) has %d bytes, want %d", n, len(got.Bytes()), want)
		}
	}
}
