package wire

import (
	"bytes"
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
		&ObligationHandover{Round: 4, From: 5, Monitored: 2, Obligation: []byte{3, 1, 4}, Suspect: true, Sig: sig},
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
// re-marshal to exactly b.
func checkCanonical(t *testing.T, b []byte) (accepted bool) {
	t.Helper()
	for name, dec := range decoders {
		m, err := dec(b)
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
	for k := KindKeyRequest; k <= KindObligationHandover; k++ {
		// An AckCopy is an Ack under another envelope kind.
		if k != KindAckCopy && !covered[KindName(k)] {
			t.Errorf("no sample message of kind %s", KindName(k))
		}
	}
}

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
		if _, err := UnmarshalKeyResponse(enc); err == nil {
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
	m, err := UnmarshalKeyResponse(keyResponseWith(3, w.Finish()))
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
	f.Fuzz(func(t *testing.T, b []byte) { checkCanonical(t, b) })
}

// A decoded message aliases the buffer it was decoded from, field by
// field: nothing is copied on the receive path.
func TestDecodedFieldsAliasInput(t *testing.T) {
	src := sampleMessages()[3].(*Serve)
	enc := src.Marshal()
	dec, err := UnmarshalServe(enc)
	if err != nil {
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
	if !flipped(dec.KPrev, src.KPrev) || !flipped(dec.Sig, src.Sig) ||
		!flipped(dec.Full[0].Update.Payload, src.Full[0].Update.Payload) ||
		!flipped(dec.Full[0].Update.SrcSig, src.Full[0].Update.SrcSig) {
		t.Fatal("a decoded field was copied instead of viewed")
	}
}
