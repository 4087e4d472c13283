package wire

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/update"
)

// Canonical decoding is what makes checking a signature over the received
// prefix (SignedPrefix) the same as checking it over a re-encoding of the
// decoded message: a decoder accepts only the bytes Marshal produces for
// the value it returns.

// sampleMessages returns at least one message of every kind with every
// field populated, plus the empty-list and empty-field shapes.
func sampleMessages() []BodyMessage {
	sig := bytes.Repeat([]byte{0x5A}, 32)
	upd := update.Update{ID: model.UpdateID{Stream: 1, Seq: 7}, Deadline: 19,
		Payload: []byte("payload bytes"), SrcSig: []byte("source sig")}
	return []BodyMessage{
		&KeyRequest{Round: 3, From: 1, To: 2, Sig: sig},
		&KeyResponse{Round: 3, From: 2, To: 1, Prime: []byte{0xAB, 0xCD},
			BufferMap: []uint64{0x010203, 0x0405060708090A0B}, Sig: sig},
		&KeyResponse{Round: 3, From: 2, To: 1, Prime: []byte{7}, Sig: sig},
		&Serve{Round: 4, From: 1, To: 2, KPrev: []byte{9, 9},
			Full: []ServedUpdate{{Update: upd, Count: 2}, {Update: update.Update{ID: model.UpdateID{Seq: 8}}, Count: 1}},
			Refs: []ServedRef{{ID: model.UpdateID{Stream: 1, Seq: 3}, Count: 5}}, Sig: sig},
		&Serve{Round: 4, From: 1, To: 2, Sig: sig},
		&Attestation{Round: 4, From: 1, To: 2, HExpiring: []byte{1}, HForwardable: []byte{2, 3}, Sig: sig},
		&Ack{Round: 4, From: 2, To: 1, H: []byte{4, 5, 6}, Sig: sig},
		&AttForward{Round: 4, From: 2, AttBytes: []byte("att"), Remainder: []byte{0x11}, Sig: sig},
		&HashShare{Round: 4, From: 5, Monitored: 2, Pred: 1, HExpLifted: []byte{1},
			HFwdLifted: []byte{2}, AckBytes: []byte("ack"), Sig: sig},
		NewAckForward(4, 5, []byte("ack")),
		NewConfirm(4, 5, []byte("ack")),
		&NodeDigest{Round: 4, From: 2, HFwd: []byte{8, 8}, Sig: sig},
		&Accusation{Round: 4, From: 1, Against: 2, ServeCipher: []byte("cipher"), AttBytes: []byte("att"), Sig: sig},
		&Probe{Round: 4, From: 5, Origin: 1, ServeCipher: []byte("cipher"), AttBytes: []byte("att"), Sig: sig},
		&Nack{Round: 4, From: 5, Accuser: 1, Against: 2, Sig: sig},
		&AckRequest{Round: 4, From: 6, Succ: 2, Sig: sig},
		&AckExhibit{Round: 4, From: 1, Succ: 2, AckBytes: []byte("ack"), Sig: sig},
		&AckExhibit{Round: 4, From: 1, Succ: 2, Accused: true, Sig: sig},
	}
}

// decoderOf returns the decoder for m's kind.
func decoderOf(m Message) func([]byte) (Message, error) {
	switch m.Kind() {
	case KindAckForward, KindConfirm:
		return decoders["AckRelay"]
	default:
		return decoders[KindName(m.Kind())]
	}
}

// checkCanonical feeds b to every decoder: whatever accepts it must
// re-marshal to exactly b. Decoding b into a shell left dirty by a longer
// message of the kind must succeed or fail with the fresh decode, and
// succeed to the same fields (checkDirtyDecode).
func checkCanonical(t *testing.T, b []byte) (accepted bool) {
	t.Helper()
	for name, dec := range decoders {
		m, err := dec(b)
		checkDirtyDecode(t, name, b, m, err)
		if err != nil {
			continue
		}
		accepted = true
		if got := m.Marshal(); !bytes.Equal(got, b) {
			t.Fatalf("%s accepted %x but re-marshals it as %x", name, b, got)
		}
	}
	return accepted
}

// shell is a message a receiver decodes into again and again.
type shell interface {
	Message
	Decode([]byte) error
}

// longMessages returns, per decoder, a message of its kind whose every
// byte field and list is longer than any sample's.
func longMessages() map[string]shell {
	long := bytes.Repeat([]byte{0xEE}, 48)
	sig := bytes.Repeat([]byte{0xA5}, 64)
	upd := update.Update{ID: model.UpdateID{Stream: 9, Seq: 99}, Deadline: 77, Payload: long, SrcSig: long}
	full := []ServedUpdate{{upd, 3}, {upd, 4}, {upd, 5}, {upd, 6}, {upd, 7}}
	refs := []ServedRef{{upd.ID, 1}, {upd.ID, 2}, {upd.ID, 3}, {upd.ID, 4}, {upd.ID, 5}, {upd.ID, 6}}
	confirm := NewConfirm(99, 9, long)
	confirm.Sig = sig
	return map[string]shell{
		"KeyRequest":  &KeyRequest{Round: 99, From: 9, To: 8, Sig: sig},
		"KeyResponse": &KeyResponse{Round: 99, From: 9, To: 8, Prime: long, BufferMap: []uint64{1, 2, 3, 4, 5, 6, 7, 8}, Sig: sig},
		"Serve":       &Serve{Round: 99, From: 9, To: 8, KPrev: long, Full: full, Refs: refs, Sig: sig},
		"Attestation": &Attestation{Round: 99, From: 9, To: 8, HExpiring: long, HForwardable: long, Sig: sig},
		"Ack":         &Ack{Round: 99, From: 9, To: 8, H: long, Sig: sig},
		"AttForward":  &AttForward{Round: 99, From: 9, AttBytes: long, Remainder: long, Sig: sig},
		"HashShare":   &HashShare{Round: 99, From: 9, Monitored: 8, Pred: 7, HExpLifted: long, HFwdLifted: long, AckBytes: long, Sig: sig},
		"AckRelay":    confirm,
		"NodeDigest":  &NodeDigest{Round: 99, From: 9, HFwd: long, Sig: sig},
		"Accusation":  &Accusation{Round: 99, From: 9, Against: 8, ServeCipher: long, AttBytes: long, Sig: sig},
		"Probe":       &Probe{Round: 99, From: 9, Origin: 8, ServeCipher: long, AttBytes: long, Sig: sig},
		"Nack":        &Nack{Round: 99, From: 9, Accuser: 8, Against: 7, Sig: sig},
		"AckRequest":  &AckRequest{Round: 99, From: 9, Succ: 8, Sig: sig},
		"AckExhibit":  &AckExhibit{Round: 99, From: 9, Succ: 8, AckBytes: long, Accused: true, Sig: sig},
	}
}

// dirtyShells holds, per decoder, the encoding of its long message.
var dirtyShells = func() map[string][]byte {
	encs := map[string][]byte{}
	for name, m := range longMessages() {
		encs[name] = m.Marshal()
	}
	return encs
}()

// dirtyShell returns a shell of decoder name's kind that a long message
// of the kind was decoded into.
func dirtyShell(t *testing.T, name string) shell {
	t.Helper()
	enc := dirtyShells[name]
	m, err := decoders[name](enc)
	if err != nil {
		t.Fatalf("%s: the long message does not decode: %v", name, err)
	}
	return m.(shell)
}

// checkDirtyDecode decodes b into a dirty shell of decoder name's kind:
// it must fail where the fresh decode, fresh and err, failed, and
// otherwise hold exactly fresh's fields, no entry of a list's earlier
// content past the list's length.
func checkDirtyDecode(t *testing.T, name string, b []byte, fresh Message, err error) {
	t.Helper()
	dirty := dirtyShell(t, name)
	dErr := dirty.Decode(b)
	if (dErr == nil) != (err == nil) {
		t.Fatalf("%s: a fresh decode of %x gives %v, a dirty shell %v", name, b, err, dErr)
	}
	if err != nil {
		return
	}
	if !sameFields(reflect.ValueOf(dirty).Elem(), reflect.ValueOf(fresh).Elem()) {
		t.Fatalf("%s: decoded into a dirty shell, %x gives %+v, fresh %+v", name, b, dirty, fresh)
	}
	if staleEntry(reflect.ValueOf(dirty).Elem()) {
		t.Fatalf("%s: decoding %x into a dirty shell left a list entry of the earlier message", name, b)
	}
}

// sameFields reports whether a and b hold the same values field by field;
// an empty list or byte field equals another whether or not it is nil.
func sameFields(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameFields(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameFields(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Uint8, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	}
	panic("sameFields: unexpected kind " + a.Kind().String())
}

// staleEntry reports whether a list of v's holds a non-zero entry past its
// length, in the part of its array a longer list used.
func staleEntry(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if staleEntry(v.Field(i)) {
				return true
			}
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return false // a view: its array is the input's
		}
		all := v.Slice(0, v.Cap())
		for i := v.Len(); i < all.Len(); i++ {
			if !all.Index(i).IsZero() {
				return true
			}
		}
	}
	return false
}

// TestDecodeIntoDirtyShell: every sample decoded into a shell left dirty
// by a longer message of its kind equals its fresh decode, and decoding
// nothing empties the shell.
func TestDecodeIntoDirtyShell(t *testing.T) {
	for _, m := range sampleMessages() {
		name := KindName(m.Kind())
		if m.Kind() == KindAckForward || m.Kind() == KindConfirm {
			name = "AckRelay"
		}
		enc := m.Marshal()
		fresh, err := decoders[name](enc)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		checkDirtyDecode(t, name, enc, fresh, err)
		dirty := dirtyShell(t, name)
		if dirty.Decode(nil) == nil {
			t.Fatalf("%s: decoding nothing succeeded", name)
		}
		if v := reflect.ValueOf(dirty).Elem(); !sameFields(v, reflect.Zero(v.Type())) || staleEntry(v) {
			t.Fatalf("%s: decoding nothing left %+v", name, dirty)
		}
	}
}

// TestDecodeIsCanonical: every kind round-trips to identical bytes, and no
// single-byte corruption of a valid encoding is accepted as a different
// encoding of the same value.
func TestDecodeIsCanonical(t *testing.T) {
	covered := map[string]bool{}
	for _, m := range sampleMessages() {
		enc := m.Marshal()
		dec, err := decoderOf(m)(enc)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if !bytes.Equal(dec.Marshal(), enc) {
			t.Fatalf("%T does not round-trip to identical bytes", m)
		}
		covered[KindName(m.Kind())] = true
		if !checkCanonical(t, enc) {
			t.Fatalf("%T: no decoder accepted a valid encoding", m)
		}
		for i := range enc {
			for _, flip := range []byte{0x01, 0x80, 0xFF} {
				mut := bytes.Clone(enc)
				mut[i] ^= flip
				checkCanonical(t, mut)
			}
		}
	}
	for k := KindKeyRequest; k <= KindAckExhibit; k++ {
		// An AckCopy is an Ack under another envelope kind.
		if k != KindAckCopy && !covered[KindName(k)] {
			t.Errorf("no sample message of kind %s", KindName(k))
		}
	}
	if checkCanonical(t, retiredFrame) {
		t.Error("a decoder accepts a frame of the retired kind 17")
	}
}

// retiredFrame is a frame of the retired kind 17: round 4, sender 5,
// monitored node 2, an obligation and a suspect flag, signed like the
// samples — the encoding its message had before the kind was retired.
var retiredFrame = append([]byte{
	KindObligationHandover, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 5, 0, 0, 0, 2, 0, 0, 0,
	3, 3, 1, 4, 1, 0, 0, 0, 32,
}, bytes.Repeat([]byte{0x5A}, 32)...)

// keyResponseWith encodes a KeyResponse whose buffermap is the declared
// count followed by tail, whatever those are.
func keyResponseWith(count uint32, tail []byte) []byte {
	w := NewWriter()
	w.U8(KindKeyResponse)
	w.U64(3)
	w.U32(2)
	w.U32(1)
	w.Bytes([]byte{0xAB, 0xCD})
	w.U32(count)
	w.Raw(tail)
	return w.Finish()
}

// nonCanonicalKeyResponses are buffermap encodings a decoder must refuse:
// a set has one encoding, and a count is only believed if the bytes are
// there.
func nonCanonicalKeyResponses() map[string][]byte {
	tags := func(ts ...uint64) []byte {
		w := NewWriter()
		for _, t := range ts {
			w.U64(t)
		}
		w.Bytes(bytes.Repeat([]byte{0x5A}, 32)) // Sig
		return w.Finish()
	}
	return map[string][]byte{
		"unsorted":            keyResponseWith(3, tags(1, 9, 5)),
		"duplicate tag":       keyResponseWith(3, tags(1, 5, 5)),
		"short tail":          keyResponseWith(2, tags(1, 5)[:8+5]),
		"count > remaining/8": keyResponseWith(7, tags(1, 5)), // 52 bytes follow
		"count over the cap":  keyResponseWith(MaxListLen+1, tags(1, 5)),
	}
}

func TestKeyResponseRejectsNonCanonicalBufferMap(t *testing.T) {
	for name, enc := range nonCanonicalKeyResponses() {
		if _, err := unmarshal[KeyResponse](enc); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if checkCanonical(t, enc) {
			t.Errorf("%s: some decoder accepted it", name)
		}
	}
	// The same bytes with the tags in order are a KeyResponse.
	w := NewWriter()
	w.U64(1)
	w.U64(5)
	w.U64(9)
	w.Bytes([]byte{0x5A})
	m, err := unmarshal[KeyResponse](keyResponseWith(3, w.Finish()))
	if err != nil || len(m.BufferMap) != 3 || m.BufferMap[2] != 9 {
		t.Fatalf("ascending buffermap: %v, %v", m, err)
	}
}

// FuzzDecodeIsCanonical: any input any decoder accepts re-marshals to the
// identical bytes.
func FuzzDecodeIsCanonical(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(m.Marshal())
	}
	for _, enc := range nonCanonicalKeyResponses() {
		f.Add(enc)
	}
	f.Add(retiredFrame)
	f.Fuzz(func(t *testing.T, b []byte) { checkCanonical(t, b) })
}

// A decoded message aliases the buffer it was decoded from, field by
// field, whether it is fresh or a dirty shell decoded into again: nothing
// is copied on the receive path.
func TestDecodedFieldsAliasInput(t *testing.T) {
	src := sampleMessages()[3].(*Serve)
	enc := src.Marshal()
	dec, err := UnmarshalServe(enc)
	if err != nil {
		t.Fatal(err)
	}
	again := dirtyShell(t, "Serve").(*Serve)
	if err := again.Decode(enc); err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] ^= 0xFF
	}
	flipped := func(got, orig []byte) bool {
		for i := range got {
			if got[i] != orig[i]^0xFF {
				return false
			}
		}
		return len(got) == len(orig)
	}
	for _, dec := range []*Serve{dec, again} {
		if !flipped(dec.KPrev, src.KPrev) || !flipped(dec.Sig, src.Sig) ||
			!flipped(dec.Full[0].Update.Payload, src.Full[0].Update.Payload) ||
			!flipped(dec.Full[0].Update.SrcSig, src.Full[0].Update.SrcSig) {
			t.Fatal("a decoded field was copied instead of viewed")
		}
	}
}
