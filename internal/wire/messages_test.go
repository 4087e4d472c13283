package wire

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/update"
)

func TestKindNames(t *testing.T) {
	kinds := []uint8{
		KindKeyRequest, KindKeyResponse, KindServe, KindAttestation,
		KindAck, KindAckCopy, KindAttForward, KindHashShare,
		KindAckForward, KindNodeDigest, KindAccusation, KindProbe,
		KindConfirm, KindNack, KindAckRequest, KindAckExhibit,
		KindObligationHandover,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		name := KindName(k)
		if name == "" || seen[name] {
			t.Fatalf("kind %d has bad/duplicate name %q", k, name)
		}
		seen[name] = true
	}
	if KindName(200) != "Kind(200)" {
		t.Fatal("unknown kind name")
	}
}

func TestKeyRequestRoundTrip(t *testing.T) {
	m := &KeyRequest{Round: 9, From: 1, To: 2, Sig: []byte("sig")}
	got, err := UnmarshalKeyRequest(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round-trip mismatch: %+v vs %+v", m, got)
	}
	if m.Kind() != KindKeyRequest {
		t.Fatal("kind")
	}
}

func TestSigningBytesExcludeSignature(t *testing.T) {
	m := &KeyRequest{Round: 9, From: 1, To: 2}
	before := signingBytes(m)
	m.Sig = []byte("later signature")
	after := signingBytes(m)
	if !bytes.Equal(before, after) {
		t.Fatal("the signed body must not depend on Sig")
	}
	if enc := m.Marshal(); !bytes.Equal(SignedPrefix(enc, m.Sig), before) {
		t.Fatal("SignedPrefix of the marshalled form is not the signed body")
	}
}

func TestKeyResponseRoundTrip(t *testing.T) {
	m := &KeyResponse{
		Round:     3,
		From:      2,
		To:        1,
		Prime:     []byte{0xAB, 0xCD},
		BufferMap: []uint64{1, 0x0202, 1 << 63},
		Sig:       []byte("s"),
	}
	got, err := UnmarshalKeyResponse(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("mismatch: %+v vs %+v", m, got)
	}
}

func TestKeyResponseEmptyBufferMap(t *testing.T) {
	m := &KeyResponse{Round: 1, From: 2, To: 1, Prime: []byte{5}, Sig: []byte("s")}
	got, err := UnmarshalKeyResponse(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.BufferMap) != 0 {
		t.Fatal("buffermap should be empty")
	}
}

func mkServe() *Serve {
	return &Serve{
		Round: 7,
		From:  1,
		To:    2,
		KPrev: []byte{9, 9, 9},
		Full: []ServedUpdate{
			{
				Update: update.Update{
					ID:       model.UpdateID{Stream: 1, Seq: 4},
					Deadline: 17,
					Payload:  []byte("chunk"),
					SrcSig:   []byte("source-sig"),
				},
				Count: 2,
			},
		},
		Refs: []ServedRef{
			{ID: model.UpdateID{Stream: 1, Seq: 2}, Count: 1},
			{ID: model.UpdateID{Stream: 1, Seq: 3}, Count: 3},
		},
		Sig: []byte("sig"),
	}
}

func TestServeRoundTrip(t *testing.T) {
	m := mkServe()
	got, err := UnmarshalServe(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("mismatch:\n%+v\n%+v", m, got)
	}
}

func TestServeEmptyLists(t *testing.T) {
	m := &Serve{Round: 1, From: 1, To: 2, KPrev: []byte{1}, Sig: []byte("s")}
	got, err := UnmarshalServe(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Full) != 0 || len(got.Refs) != 0 {
		t.Fatal("lists should be empty")
	}
}

func TestAttestationRoundTrip(t *testing.T) {
	m := &Attestation{
		Round: 2, From: 1, To: 2,
		HExpiring:    []byte{1, 2},
		HForwardable: []byte{3, 4},
		Sig:          []byte("s"),
	}
	got, err := UnmarshalAttestation(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("mismatch")
	}
}

func TestAckRoundTrip(t *testing.T) {
	m := &Ack{Round: 2, From: 2, To: 1, H: []byte{7, 7}, Sig: []byte("s")}
	got, err := UnmarshalAck(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("mismatch")
	}
}

func TestAttForwardRoundTrip(t *testing.T) {
	m := &AttForward{
		Round: 4, From: 2,
		AttBytes:  []byte("attestation-bytes"),
		Remainder: []byte{0xFF, 0x01},
		Sig:       []byte("s"),
	}
	got, err := UnmarshalAttForward(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("mismatch")
	}
}

func TestHashShareRoundTrip(t *testing.T) {
	m := &HashShare{
		Round: 4, From: 9, Monitored: 2, Pred: 1,
		HExpLifted: []byte{1},
		HFwdLifted: []byte{2},
		AckBytes:   []byte("ack"),
		Sig:        []byte("s"),
	}
	got, err := UnmarshalHashShare(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("mismatch")
	}
}

func TestAckRelayBothKinds(t *testing.T) {
	fw := NewAckForward(3, 9, []byte("ack"))
	fw.Sig = []byte("s")
	got, err := UnmarshalAckRelay(fw.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != KindAckForward || !bytes.Equal(got.AckBytes, []byte("ack")) {
		t.Fatal("ack-forward mismatch")
	}

	cf := NewConfirm(3, 9, []byte("ack2"))
	cf.Sig = []byte("s")
	got, err = UnmarshalAckRelay(cf.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != KindConfirm {
		t.Fatal("confirm kind lost")
	}
	// Kinds are part of the signed bytes: relabeling is detectable.
	if bytes.Equal(signingBytes(fw), signingBytes(NewConfirm(3, 9, []byte("ack")))) {
		t.Fatal("kind not covered by signature")
	}
}

func TestNodeDigestRoundTrip(t *testing.T) {
	m := &NodeDigest{Round: 5, From: 2, HFwd: []byte{9}, Sig: []byte("s")}
	got, err := UnmarshalNodeDigest(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("mismatch")
	}
}

func TestAccusationRoundTrip(t *testing.T) {
	m := &Accusation{
		Round: 6, From: 1, Against: 2,
		ServeCipher: []byte("cipher"),
		AttBytes:    []byte("att"),
		Sig:         []byte("s"),
	}
	got, err := UnmarshalAccusation(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("mismatch")
	}
}

func TestProbeRoundTrip(t *testing.T) {
	m := &Probe{
		Round: 6, From: 9, Origin: 1,
		ServeCipher: []byte("cipher"),
		AttBytes:    []byte("att"),
		Sig:         []byte("s"),
	}
	got, err := UnmarshalProbe(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("mismatch")
	}
}

func TestNackRoundTrip(t *testing.T) {
	m := &Nack{Round: 6, From: 9, Accuser: 1, Against: 2, Sig: []byte("s")}
	got, err := UnmarshalNack(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("mismatch")
	}
}

func TestObligationHandoverRoundTrip(t *testing.T) {
	for _, m := range []*ObligationHandover{
		{Round: 7, From: 9, Monitored: 2, Obligation: []byte("ob"), Sig: []byte("s")},
		{Round: 8, From: 3, Monitored: 5, Obligation: []byte{1}, Suspect: true, Sig: []byte("s")},
	} {
		got, err := UnmarshalObligationHandover(m.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("mismatch: %+v vs %+v", m, got)
		}
	}
	if _, err := UnmarshalObligationHandover([]byte{KindNack, 0}); err == nil {
		t.Fatal("wrong kind accepted")
	}
}

func TestAckRequestRoundTrip(t *testing.T) {
	m := &AckRequest{Round: 6, From: 9, Succ: 2, Sig: []byte("s")}
	got, err := UnmarshalAckRequest(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("mismatch")
	}
}

func TestAckExhibitRoundTrip(t *testing.T) {
	for _, m := range []*AckExhibit{
		{Round: 6, From: 1, Succ: 2, AckBytes: []byte("ack"), Sig: []byte("s")},
		{Round: 6, From: 1, Succ: 2, Accused: true, AckBytes: []byte{}, Sig: []byte("s")},
	} {
		got, err := UnmarshalAckExhibit(m.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if got.Accused != m.Accused || !bytes.Equal(got.AckBytes, m.AckBytes) {
			t.Fatalf("mismatch: %+v vs %+v", m, got)
		}
	}
}

func TestUnmarshalRejectsWrongKind(t *testing.T) {
	req := (&KeyRequest{Round: 1, From: 1, To: 2, Sig: []byte("s")}).Marshal()
	if _, err := UnmarshalAck(req); err == nil {
		t.Fatal("Ack decoder accepted a KeyRequest")
	}
	if _, err := UnmarshalServe(req); err == nil {
		t.Fatal("Serve decoder accepted a KeyRequest")
	}
	if _, err := UnmarshalAckRelay(req); err == nil {
		t.Fatal("AckRelay decoder accepted a KeyRequest")
	}
}

func TestUnmarshalRejectsTruncation(t *testing.T) {
	full := mkServe().Marshal()
	for _, cut := range []int{1, len(full) / 2, len(full) - 1} {
		if _, err := UnmarshalServe(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestUnmarshalRejectsTrailing(t *testing.T) {
	enc := (&Ack{Round: 1, From: 2, To: 1, H: []byte{1}, Sig: []byte("s")}).Marshal()
	enc = append(enc, 0xEE)
	if _, err := UnmarshalAck(enc); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestServeSizeReflectsPayload pins down the bandwidth model: the dominant
// cost of a Serve is its update payloads.
func TestServeSizeReflectsPayload(t *testing.T) {
	small := &Serve{Round: 1, From: 1, To: 2, KPrev: []byte{1}, Sig: make([]byte, 256)}
	big := mkServe()
	big.Full[0].Update.Payload = make([]byte, model.UpdateBytes)
	big.Sig = make([]byte, 256)
	d := len(big.Marshal()) - len(small.Marshal())
	if d < model.UpdateBytes {
		t.Fatalf("serve size delta %d < payload size", d)
	}
}
