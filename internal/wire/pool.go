package wire

// The message path every protocol in this repository shares (PAG's core
// and the AcTinG baseline): a sender walks a message's layout once
// into a pooled Writer, signs those bytes in place (Writer.Sign) — and,
// for the encrypted kinds, seals them into a second pooled Writer
// (Writer.Encrypt) — and lends the result to transport.SendLent: a socket
// copies it into its batch buffer, while MemNet, whose Send keeps what it
// is given, copies it once into its own recycled send arena, and every
// recipient of a fan-out is delivered that one copy. A receiver
// walks the same layout over the payload it was delivered — or, for the
// encrypted kinds, over the pooled Writer it opened the payload into
// (Writer.Open) — decoding views into those bytes, and checks the
// signature over their prefix (SignedPrefix), never over a re-encoding.
// Views die with the handler: the payload goes back to its owner and the
// Writer to the pool.

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/update"
)

// maxPooledWriter caps the capacity a Writer may keep when returned to
// the pool, so one oversized Serve does not pin a large buffer forever.
const maxPooledWriter = 64 << 10

var writerPool = sync.Pool{
	New: func() any { return NewWriter() },
}

// GetWriter returns an empty Writer from the pool. Pair with Release once
// every slice obtained from it is dead.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// GetWriterSize returns an empty Writer with room for n bytes: a pooled
// one grown to n when n fits the pool's cap (maxPooledWriter), otherwise
// a fresh one of exactly n, which Release lets go. A message sized in
// advance is then encoded without regrowing through appends, and one past
// the cap does not evict a pooled buffer.
func GetWriterSize(n int) *Writer {
	if n > maxPooledWriter {
		return &Writer{buf: make([]byte, 0, n)}
	}
	w := GetWriter()
	w.buf = slices.Grow(w.buf, n)
	return w
}

// Reset empties the Writer, keeping its capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Release returns the Writer to the pool. Slices previously returned by
// Seal/Open/Finish alias its buffer and must not be used afterwards.
func (w *Writer) Release() {
	PoisonOnRelease(w.buf[:cap(w.buf)])
	if cap(w.buf) <= maxPooledWriter {
		writerPool.Put(w)
	}
}

// poisonReleased is the test hook behind PoisonReleased.
var poisonReleased atomic.Bool

// PoisonReleased makes Writer.Release overwrite a Writer's buffer before
// pooling it, and Arena.Release an arena's buffer — and MemNet a chunk of
// its send arena (PoisonOnRelease) — when its last reference goes, so
// that a view kept past Release — a decoded field of an opened message,
// pooled or arena bytes handed to a transport that keeps them —
// reads garbage at once instead of whenever the pool
// happens to reuse the buffer. For tests only; it returns the function
// that restores the previous setting.
func PoisonReleased() (restore func()) {
	prev := poisonReleased.Swap(true)
	return func() { poisonReleased.Store(prev) }
}

// PoisonOnRelease overwrites b, a buffer its owner is recycling, when
// PoisonReleased is on: Writer.Release, Arena.Release and MemNet's send
// arena call it.
func PoisonOnRelease(b []byte) {
	if poisonReleased.Load() {
		for i := range b {
			b[i] = 0xDB
		}
	}
}

// Signer signs in place: it appends the signature over msg to dst and
// returns the extended slice (pki identities implement it). msg may alias
// dst's contents.
type Signer interface {
	SignAppend(dst, msg []byte) ([]byte, error)
}

// Opener decrypts into a buffer it is given: it appends the plaintext of
// ciphertext to dst and returns the extended slice (pki identities
// implement it).
type Opener interface {
	DecryptAppend(dst, ciphertext []byte) ([]byte, error)
}

// Encrypter seals into a buffer it is given: it appends the ciphertext of
// msg for to to dst and returns the extended slice (pki suites implement
// it). dst's spare capacity must not overlap msg.
type Encrypter interface {
	EncryptAppend(dst []byte, to model.NodeID, msg []byte) ([]byte, error)
}

// Encrypt resets w to the ciphertext of plain for to and returns it, the
// sending counterpart of Open: a message Sealed in one pooled Writer is
// encrypted into another, and the ciphertext lent to a send. plain must
// not alias w. The returned slice aliases w's buffer: it is valid until
// the next Reset, Seal, Open, Encrypt or Release.
func (w *Writer) Encrypt(e Encrypter, to model.NodeID, plain []byte) ([]byte, error) {
	buf, err := e.EncryptAppend(w.buf[:0], to, plain)
	if err != nil {
		return nil, err
	}
	w.buf = buf
	return buf, nil
}

// Open resets w to the plaintext of ciphertext and returns it, the
// receiving counterpart of Seal. The returned slice aliases w's buffer: it
// is valid until the next Reset, Seal, Open, Encrypt or Release.
func (w *Writer) Open(o Opener, ciphertext []byte) ([]byte, error) {
	buf, err := o.DecryptAppend(w.buf[:0], ciphertext)
	if err != nil {
		return nil, err
	}
	w.buf = buf
	return buf, nil
}

// sigPrefixLen is the length prefix of the trailing signature field.
const sigPrefixLen = 4

// Sign signs everything encoded so far and appends the signature as the
// message's trailing length-prefixed field: the body is encoded once and
// the same bytes are what is signed and what is sent. On error the Writer
// still holds the unsigned body.
func (w *Writer) Sign(s Signer) error {
	n := len(w.buf)
	w.U32(0) // length slot, patched once the signature's size is known
	buf, err := s.SignAppend(w.buf, w.buf[:n])
	if err != nil {
		w.buf = w.buf[:n]
		return err
	}
	binary.BigEndian.PutUint32(buf[n:], uint32(len(buf)-n-sigPrefixLen))
	w.buf = buf
	return nil
}

// SignedPrefix returns the part of an encoded message its signature
// covers: everything before the trailing signature field. encoded must
// have decoded successfully with sig as its last field; because decoding
// is canonical (a decoder walks the same layout as the encoder, so it
// accepts only the bytes Marshal would produce for the decoded value),
// verifying over this prefix is verifying over the re-encoded body.
func SignedPrefix(encoded, sig []byte) []byte {
	return encoded[:len(encoded)-sigPrefixLen-len(sig)]
}

// BodyMessage is the encoding surface shared by every wire message: the
// Message interface plus the unexported layout its body is encoded and
// decoded by, which keeps the set closed over this package's types.
type BodyMessage interface {
	Message
	layout(c Codec)
}

// Seal encodes m's body into w, signs it in place and returns the full
// wire form — byte for byte what Marshal produces once m's signature
// field holds that signature. The returned slice aliases w's buffer: it
// is valid until the next Reset, Seal, Open, Encrypt or Release.
func Seal(w *Writer, m BodyMessage, s Signer) ([]byte, error) {
	w.Reset()
	m.layout(w.Codec())
	if err := w.Sign(s); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// Canonical resets w to u's canonical bytes (what the source signed) and
// returns them, for verifying a source signature without a fresh
// allocation per update.
func (w *Writer) Canonical(u *update.Update) []byte {
	w.buf = u.AppendCanonical(w.buf[:0])
	return w.buf
}

// marshal is Marshal for every message type: body plus signature field,
// encoded through a pooled Writer into one exact-size slice.
func marshal(m BodyMessage, sig []byte) []byte {
	w := GetWriter()
	m.layout(w.Codec())
	w.Bytes(sig)
	out := bytes.Clone(w.buf)
	w.Release()
	return out
}
