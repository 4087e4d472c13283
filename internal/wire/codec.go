// Package wire defines PAG's wire protocol: the messages of Fig 5
// (KeyRequest, KeyResponse, Serve, Attestation, Ack), the monitoring
// messages of Fig 6 (AckCopy, AttForward, HashShare, AckForward, plus the
// node self-digest of §V-B), and the accusation flow of §IV-A (Accusation,
// Probe, Confirm, Nack, AckRequest, AckExhibit).
//
// Encoding is a deterministic hand-rolled binary format: deterministic
// bytes make signatures well-defined and make bandwidth accounting — the
// paper's headline metric — byte-exact.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Limits guarding decoders against hostile inputs.
const (
	// MaxBytesField bounds one length-prefixed field.
	MaxBytesField = 16 << 20
	// MaxListLen bounds one list field.
	MaxListLen = 1 << 20
)

// ErrTruncated is returned when a decoder runs out of input.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTrailing is returned when a message has unconsumed trailing bytes.
var ErrTrailing = errors.New("wire: trailing bytes after message")

// Writer accumulates a deterministic binary encoding. Hot paths take one
// from the pool (GetWriter) so a message is encoded once, into a buffer
// that is recycled instead of grown from 256 bytes every time.
type Writer struct {
	buf []byte
}

// NewWriter creates a Writer with a small preallocated buffer.
func NewWriter() *Writer {
	return &Writer{buf: make([]byte, 0, 256)}
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// Bytes appends a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Raw appends bytes without a prefix (caller guarantees framing).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Len returns the current encoded length.
func (w *Writer) Len() int { return len(w.buf) }

// Finish returns the encoded bytes. They alias the Writer's buffer: valid
// until the next Reset or Release.
func (w *Writer) Finish() []byte { return w.buf }

// Reader decodes a binary encoding with sticky error semantics: after the
// first failure every further read returns zero values and Err reports the
// failure. Byte-string reads return views into the input, never copies:
// a decoded message aliases the buffer it was decoded from, and whoever
// keeps a field beyond the life of that buffer clones it (see DESIGN.md,
// "Message path").
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader creates a Reader over b (not copied).
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the sticky decoding error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail(ErrTruncated)
		return nil
	}
	// The capacity is clipped so an append to a view can never write into
	// the bytes that follow it in the input.
	out := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one boolean byte, rejecting values other than 0/1.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(errors.New("wire: invalid boolean"))
		return false
	}
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Bytes reads a length-prefixed byte string as a view into the input (nil
// when empty).
func (r *Reader) Bytes() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if n > MaxBytesField {
		r.fail(fmt.Errorf("wire: field of %d bytes exceeds limit", n))
		return nil
	}
	if n == 0 {
		return nil
	}
	return r.take(int(n))
}

// Raw reads n unprefixed bytes as a view into the input.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// ListLen reads a list length. minElem is the smallest encoding of one
// element: a count the remaining input cannot hold is rejected here, so a
// decoder may allocate the list at its declared length without a short
// hostile message buying a large allocation.
func (r *Reader) ListLen(minElem int) int {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if n > MaxListLen {
		r.fail(fmt.Errorf("wire: list of %d elements exceeds limit", n))
		return 0
	}
	if int(n)*minElem > len(r.buf)-r.off {
		r.fail(ErrTruncated)
		return 0
	}
	return int(n)
}

// Done returns an error if decoding failed or input remains.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return ErrTrailing
	}
	return nil
}
