// Package wire defines PAG's wire protocol: the messages of Fig 5
// (KeyRequest, KeyResponse, Serve, Attestation, Ack), the monitoring
// messages of Fig 6 (AckCopy, AttForward, HashShare, AckForward, plus the
// node self-digest of §V-B), and the accusation flow of §IV-A (Accusation,
// Probe, Confirm, Nack, AckRequest, AckExhibit).
//
// Encoding is a deterministic hand-rolled binary format: deterministic
// bytes make signatures well-defined and make bandwidth accounting — the
// paper's headline metric — byte-exact. Every message type states its
// fields once, in wire order, in a layout method; a Codec walks that one
// layout to encode the message or to decode it, so a decoder accepts
// exactly the bytes its encoder writes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/model"
	"repro/internal/update"
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

// Codec walks a layout in one direction: it writes each field into a
// Writer, or reads it in place from a Reader. A layout passes every field
// by pointer, so one walk both encodes the message and fills it from the
// input; decoding errors are the Reader's, sticky, and an encoder writes
// whatever it is given.
//
// A Codec is passed by value, lists are plain loops, and decoders call
// their concrete layout directly: a decode path that calls through an
// interface, a type parameter's method or a func value can move the Reader
// to the heap, one more allocation per message (DESIGN.md, "Message path").
type Codec struct {
	w *Writer
	r *Reader
}

// Codec returns the Codec that encodes into w.
func (w *Writer) Codec() Codec { return Codec{w: w} }

// Codec returns the Codec that decodes from r.
func (r *Reader) Codec() Codec { return Codec{r: r} }

// Decoding reports whether c reads: a layout allocates a decoded list
// only then.
func (c Codec) Decoding() bool { return c.r != nil }

// Kind carries a message's leading kind byte: decoding fails unless it is
// want.
func (c Codec) Kind(want uint8) { c.KindOf(&want, want, want) }

// KindOf carries the kind byte of a message that has two, a and b, in *k:
// decoding fails on any other.
func (c Codec) KindOf(k *uint8, a, b uint8) {
	if c.r == nil {
		c.w.U8(*k)
		return
	}
	*k = c.r.U8()
	if *k != a && *k != b && c.r.err == nil {
		c.r.fail(fmt.Errorf("wire: unexpected kind %d", *k))
	}
}

// Reject fails decoding with err, for a rule a layout states beside its
// fields; an encoder writes what it is given.
func (c Codec) Reject(err error) {
	if c.r != nil {
		c.r.fail(err)
	}
}

// U8 carries one byte.
func (c Codec) U8(v *uint8) {
	if c.r == nil {
		c.w.U8(*v)
	} else {
		*v = c.r.U8()
	}
}

// Bool carries a boolean byte; decoding rejects values other than 0/1.
func (c Codec) Bool(v *bool) {
	if c.r == nil {
		c.w.Bool(*v)
	} else {
		*v = c.r.Bool()
	}
}

// U32 carries a big-endian uint32.
func (c Codec) U32(v *uint32) {
	if c.r == nil {
		c.w.U32(*v)
	} else {
		*v = c.r.U32()
	}
}

// U64 carries a big-endian uint64.
func (c Codec) U64(v *uint64) {
	if c.r == nil {
		c.w.U64(*v)
	} else {
		*v = c.r.U64()
	}
}

// Round carries a round number.
func (c Codec) Round(v *model.Round) { c.U64((*uint64)(v)) }

// Node carries a node id.
func (c Codec) Node(v *model.NodeID) { c.U32((*uint32)(v)) }

// Bytes carries a length-prefixed byte string; decoded, it is a view into
// the input (nil when empty).
func (c Codec) Bytes(v *[]byte) {
	if c.r == nil {
		c.w.Bytes(*v)
	} else {
		*v = c.r.Bytes()
	}
}

// Raw carries a fixed-width field with no prefix: decoding copies
// len(b) input bytes into b.
func (c Codec) Raw(b []byte) {
	if c.r == nil {
		c.w.Raw(b)
	} else {
		copy(b, c.r.Raw(len(b)))
	}
}

// ListLen carries a list's length: it writes n, or reads a length bounded
// by the remaining input (Reader.ListLen, minElem being the smallest
// encoding of one element), and returns the length to loop over.
func (c Codec) ListLen(n, minElem int) int {
	if c.r == nil {
		c.w.U32(uint32(n))
		return n
	}
	return c.r.ListLen(minElem)
}

// resize returns s at length n for a decoding layout to fill: in s's own
// array when it has room, with the entries past n that s held zeroed, and
// in a fresh one at exactly n otherwise (nil for an empty list that had
// none).
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	if n < len(s) {
		clear(s[n:])
	}
	return s[:n]
}

// Encoded sizes the list decoders bound their counts with (ListLen).
const (
	// UpdateIDLen is the encoding of one update identifier.
	UpdateIDLen = 4 + 8
	// MinUpdateLen is the encoding of an update with empty payload and
	// source signature.
	MinUpdateLen = UpdateIDLen + 8 + 4 + 4
)

// UpdateID carries an update identifier: stream, then sequence number.
func (c Codec) UpdateID(id *model.UpdateID) {
	c.U32((*uint32)(&id.Stream))
	c.U64(&id.Seq)
}

// Update carries a full update: identifier, deadline, payload, source
// signature. Decoded, Payload and SrcSig are views into the input;
// update.Update.Clone (or the session interner) detaches them.
func (c Codec) Update(u *update.Update) {
	c.UpdateID(&u.ID)
	c.Round(&u.Deadline)
	c.Bytes(&u.Payload)
	c.Bytes(&u.SrcSig)
}

// Signature reads the trailing signature field into *sig and reports
// whether the message decoded and nothing follows it (Done).
func (r *Reader) Signature(sig *[]byte) error {
	*sig = r.Bytes()
	return r.Done()
}
