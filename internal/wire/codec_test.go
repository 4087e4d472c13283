package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter()
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xDEADBEEF)
	w.U64(1 << 40)
	w.Bytes([]byte("payload"))
	w.Raw([]byte{1, 2})
	enc := w.Finish()

	r := NewReader(enc)
	if r.U8() != 7 || !r.Bool() || r.Bool() {
		t.Fatal("u8/bool mismatch")
	}
	if r.U32() != 0xDEADBEEF || r.U64() != 1<<40 {
		t.Fatal("int mismatch")
	}
	if string(r.Bytes()) != "payload" {
		t.Fatal("bytes mismatch")
	}
	if !bytes.Equal(r.Raw(2), []byte{1, 2}) {
		t.Fatal("raw mismatch")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderTruncation(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U32()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v", r.Err())
	}
	// Sticky: further reads keep failing without panicking.
	_ = r.U64()
	_ = r.Bytes()
	if !errors.Is(r.Done(), ErrTruncated) {
		t.Fatal("Done should surface the sticky error")
	}
}

func TestReaderTrailing(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	_ = r.U8()
	if !errors.Is(r.Done(), ErrTrailing) {
		t.Fatalf("Done = %v", r.Done())
	}
}

func TestReaderBadBool(t *testing.T) {
	r := NewReader([]byte{7})
	_ = r.Bool()
	if r.Err() == nil {
		t.Fatal("bool 7 accepted")
	}
}

func TestReaderHugeBytesField(t *testing.T) {
	w := NewWriter()
	w.U32(MaxBytesField + 1)
	r := NewReader(w.Finish())
	_ = r.Bytes()
	if r.Err() == nil {
		t.Fatal("oversized field accepted")
	}
}

func TestReaderHugeList(t *testing.T) {
	w := NewWriter()
	w.U32(MaxListLen + 1)
	r := NewReader(w.Finish())
	_ = r.ListLen(1)
	if r.Err() == nil {
		t.Fatal("oversized list accepted")
	}
}

// A count the remaining input cannot hold is rejected at the count, before
// any decoder sizes a list from it.
func TestReaderListLenBoundedByInput(t *testing.T) {
	w := NewWriter()
	w.U32(3)
	w.Raw(make([]byte, 35))
	if r := NewReader(w.Finish()); r.ListLen(12) != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("3 elements of 12 bytes accepted in 35 bytes (err %v)", r.Err())
	}
	w.U8(0)
	if r := NewReader(w.Finish()); r.ListLen(12) != 3 || r.Err() != nil {
		t.Fatalf("3 elements of 12 bytes rejected in 36 bytes (err %v)", r.Err())
	}
}

// Reader.Bytes and Raw return views: they alias the input (that is the
// zero-copy receive path), an empty field is nil, and a view's capacity
// stops at its end so appending to it cannot reach the following bytes.
func TestBytesAliasInput(t *testing.T) {
	w := NewWriter()
	w.Bytes([]byte("abc"))
	w.Bytes(nil)
	w.Raw([]byte("xy"))
	enc := w.Finish()
	r := NewReader(enc)
	got, empty, raw := r.Bytes(), r.Bytes(), r.Raw(2)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	enc[5] = 'Z' // mutate the backing buffer
	if string(got) != "aZc" {
		t.Fatal("Reader.Bytes copied its input")
	}
	if empty != nil {
		t.Fatal("empty field decoded non-nil")
	}
	if cap(got) != len(got) || cap(raw) != len(raw) {
		t.Fatal("view capacity extends past its field")
	}
	_ = append(got, '!')
	if string(raw) != "xy" || enc[7] != 0 {
		t.Fatal("append to a view overwrote the bytes after it")
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(a uint8, b bool, c uint32, d uint64, e []byte) bool {
		w := NewWriter()
		w.U8(a)
		w.Bool(b)
		w.U32(c)
		w.U64(d)
		w.Bytes(e)
		r := NewReader(w.Finish())
		ga, gb, gc, gd, ge := r.U8(), r.Bool(), r.U32(), r.U64(), r.Bytes()
		return r.Done() == nil && ga == a && gb == b && gc == c &&
			gd == d && bytes.Equal(ge, e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriterLen(t *testing.T) {
	w := NewWriter()
	if w.Len() != 0 {
		t.Fatal("fresh writer not empty")
	}
	w.U32(1)
	if w.Len() != 4 {
		t.Fatalf("Len = %d", w.Len())
	}
}
