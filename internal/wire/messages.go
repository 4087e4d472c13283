package wire

import (
	"errors"
	"fmt"

	"repro/internal/model"
	"repro/internal/update"
)

// Message kinds, carried in the transport envelope. Numbers 1–5 match the
// message numbering of Fig 5, 6–9 the monitoring flow of Fig 6.
const (
	KindKeyRequest  uint8 = 1  // Fig 5 msg 1
	KindKeyResponse uint8 = 2  // Fig 5 msg 2 (encrypted to requester)
	KindServe       uint8 = 3  // Fig 5 msg 3 (encrypted to receiver)
	KindAttestation uint8 = 4  // Fig 5 msg 4
	KindAck         uint8 = 5  // Fig 5 msg 5
	KindAckCopy     uint8 = 6  // Fig 6 msg 6: Ack copy to own monitor
	KindAttForward  uint8 = 7  // Fig 6 msg 7 (encrypted to monitor)
	KindHashShare   uint8 = 8  // Fig 6 msg 8: monitor → other monitors
	KindAckForward  uint8 = 9  // Fig 6 msg 9: B's monitors → A's monitors
	KindNodeDigest  uint8 = 10 // §V-B self-check value
	KindAccusation  uint8 = 11 // §IV-A: A accuses B to M(B)
	KindProbe       uint8 = 12 // §IV-A: M(B) probes B
	KindConfirm     uint8 = 13 // §IV-A: M(B) → M(A) with B's Ack
	KindNack        uint8 = 14 // §IV-A: M(B) → M(A), B unresponsive
	KindAckRequest  uint8 = 15 // §IV-A: M(A) demands the Ack from A
	KindAckExhibit  uint8 = 16 // §IV-A: A's reply
	// KindObligationHandover is beyond the paper: at a monitor-rotation
	// boundary, an outgoing monitor transfers its accumulated obligation
	// for a monitored node to the incoming monitors, closing the
	// rotation-round gap in the forwarding check (see ROADMAP "Monitor
	// obligation handover").
	KindObligationHandover uint8 = 17
)

// KindName returns a human-readable kind label.
func KindName(k uint8) string {
	switch k {
	case KindKeyRequest:
		return "KeyRequest"
	case KindKeyResponse:
		return "KeyResponse"
	case KindServe:
		return "Serve"
	case KindAttestation:
		return "Attestation"
	case KindAck:
		return "Ack"
	case KindAckCopy:
		return "AckCopy"
	case KindAttForward:
		return "AttForward"
	case KindHashShare:
		return "HashShare"
	case KindAckForward:
		return "AckForward"
	case KindNodeDigest:
		return "NodeDigest"
	case KindAccusation:
		return "Accusation"
	case KindProbe:
		return "Probe"
	case KindConfirm:
		return "Confirm"
	case KindNack:
		return "Nack"
	case KindAckRequest:
		return "AckRequest"
	case KindAckExhibit:
		return "AckExhibit"
	case KindObligationHandover:
		return "ObligationHandover"
	default:
		return fmt.Sprintf("Kind(%d)", k)
	}
}

// Message is the common surface of all wire messages.
type Message interface {
	// Kind returns the transport envelope kind.
	Kind() uint8
	// Marshal returns the full encoding: the deterministic body the
	// signature covers, then the signature as a length-prefixed field.
	Marshal() []byte
}

// ---------------------------------------------------------------------------
// Shared sub-encodings
// ---------------------------------------------------------------------------

// Encoded sizes the list decoders bound their counts with (Reader.ListLen).
const (
	// UpdateIDLen is the encoding of one update identifier.
	UpdateIDLen = 4 + 8
	// MinUpdateLen is the encoding of an update with empty payload and
	// source signature.
	MinUpdateLen = UpdateIDLen + 8 + 4 + 4
)

// UpdateID appends an update identifier.
func (w *Writer) UpdateID(id model.UpdateID) {
	w.U32(uint32(id.Stream))
	w.U64(id.Seq)
}

// UpdateID reads an update identifier.
func (r *Reader) UpdateID() model.UpdateID {
	return model.UpdateID{Stream: model.StreamID(r.U32()), Seq: r.U64()}
}

// Update appends a full update: identifier, deadline, payload, source
// signature.
func (w *Writer) Update(u *update.Update) {
	w.UpdateID(u.ID)
	w.U64(uint64(u.Deadline))
	w.Bytes(u.Payload)
	w.Bytes(u.SrcSig)
}

// Update reads a full update. Payload and SrcSig are views into the
// input; update.Update.Clone (or the session interner) detaches them.
func (r *Reader) Update() update.Update {
	return update.Update{
		ID:       r.UpdateID(),
		Deadline: model.Round(r.U64()),
		Payload:  r.Bytes(),
		SrcSig:   r.Bytes(),
	}
}

// ---------------------------------------------------------------------------
// KeyRequest (Fig 5, msg 1): ⟨KeyRequest, R, A, B⟩_A
// ---------------------------------------------------------------------------

// KeyRequest asks the receiver for a fresh prime exponent.
type KeyRequest struct {
	Round model.Round
	From  model.NodeID // A
	To    model.NodeID // B
	Sig   []byte
}

// Kind implements Message.
func (m *KeyRequest) Kind() uint8 { return KindKeyRequest }

func (m *KeyRequest) body(w *Writer) {
	w.U8(KindKeyRequest)
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	w.U32(uint32(m.To))
}

// Marshal implements Message.
func (m *KeyRequest) Marshal() []byte { return marshal(m, m.Sig) }

// UnmarshalKeyRequest decodes a KeyRequest.
func UnmarshalKeyRequest(b []byte) (*KeyRequest, error) {
	r := NewReader(b)
	if k := r.U8(); k != KindKeyRequest && r.Err() == nil {
		return nil, fmt.Errorf("wire: kind %d is not KeyRequest", k)
	}
	m := &KeyRequest{
		Round: model.Round(r.U64()),
		From:  model.NodeID(r.U32()),
		To:    model.NodeID(r.U32()),
	}
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// KeyResponse (Fig 5, msg 2): {⟨KeyResponse, R, B, A, p_j, H(u_{i∈S_B})⟩_B}_pk(A)
// ---------------------------------------------------------------------------

// BufTagBytes is the width of one buffermap entry on the wire: the
// low-order 64 bits of H(u)_(p_j,M) (hhash.Params.Tag). The requester only
// tests entries for membership, so the full-width value buys nothing; two
// distinct lifted hashes agreeing on 64 bits is the one way a tag can
// mislead (DESIGN.md, "Bytes on the wire", gives the bound).
const BufTagBytes = 8

// KeyResponse carries the fresh prime and the buffermap: the tags of the
// homomorphic hashes, under that prime, of the updates the responder owns
// in the buffermap window (§V-D). It travels encrypted to the requester.
type KeyResponse struct {
	Round model.Round
	From  model.NodeID // B
	To    model.NodeID // A
	Prime []byte       // p_j
	// BufferMap holds the tags of H(u)_(p_j,M), strictly ascending: a set,
	// so entry position says nothing about update order, and the one
	// encoding a decoder accepts.
	BufferMap []uint64
	Sig       []byte
}

// Kind implements Message.
func (m *KeyResponse) Kind() uint8 { return KindKeyResponse }

func (m *KeyResponse) body(w *Writer) {
	w.U8(KindKeyResponse)
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	w.U32(uint32(m.To))
	w.Bytes(m.Prime)
	w.U32(uint32(len(m.BufferMap)))
	for _, t := range m.BufferMap {
		w.U64(t)
	}
}

// Marshal implements Message.
func (m *KeyResponse) Marshal() []byte { return marshal(m, m.Sig) }

// UnmarshalKeyResponse decodes a KeyResponse.
func UnmarshalKeyResponse(b []byte) (*KeyResponse, error) {
	r := NewReader(b)
	if k := r.U8(); k != KindKeyResponse && r.Err() == nil {
		return nil, fmt.Errorf("wire: kind %d is not KeyResponse", k)
	}
	m := &KeyResponse{
		Round: model.Round(r.U64()),
		From:  model.NodeID(r.U32()),
		To:    model.NodeID(r.U32()),
		Prime: r.Bytes(),
	}
	if n := r.ListLen(BufTagBytes); n > 0 {
		m.BufferMap = make([]uint64, n)
		for i := range m.BufferMap {
			m.BufferMap[i] = r.U64()
			if i > 0 && m.BufferMap[i] <= m.BufferMap[i-1] {
				r.fail(errors.New("wire: buffermap tags not strictly ascending"))
			}
		}
	}
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Serve (Fig 5, msg 3)
// ---------------------------------------------------------------------------

// ServedUpdate is one full update payload with its reception multiplicity
// ("when a node sends an update it also joins to it an integer which
// describes the number of times it was received", §V-D).
type ServedUpdate struct {
	Update update.Update
	Count  uint64
}

// ServedRef references an update the receiver already owns (matched via the
// buffermap): only identifier and multiplicity travel, no payload. This is
// the S_A ∩ S_B part of message 3.
type ServedRef struct {
	ID    model.UpdateID
	Count uint64
}

// Serve delivers the update sets: {⟨Serve, R, A, B, K(R-1,A),
// u_{j∈S_A\S_B}, S_A∩S_B⟩_A}_pk(B).
type Serve struct {
	Round model.Round
	From  model.NodeID // A
	To    model.NodeID // B
	// KPrev is K(R-1,A): the product of the primes A used to receive
	// S_A during round R-1; B acknowledges under this key.
	KPrev []byte
	Full  []ServedUpdate
	Refs  []ServedRef
	Sig   []byte
}

// Kind implements Message.
func (m *Serve) Kind() uint8 { return KindServe }

func (m *Serve) body(w *Writer) {
	w.U8(KindServe)
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	w.U32(uint32(m.To))
	w.Bytes(m.KPrev)
	w.U32(uint32(len(m.Full)))
	for i := range m.Full {
		w.Update(&m.Full[i].Update)
		w.U64(m.Full[i].Count)
	}
	w.U32(uint32(len(m.Refs)))
	for i := range m.Refs {
		w.UpdateID(m.Refs[i].ID)
		w.U64(m.Refs[i].Count)
	}
}

// Marshal implements Message.
func (m *Serve) Marshal() []byte { return marshal(m, m.Sig) }

// UnmarshalServe decodes a Serve.
func UnmarshalServe(b []byte) (*Serve, error) {
	r := NewReader(b)
	if k := r.U8(); k != KindServe && r.Err() == nil {
		return nil, fmt.Errorf("wire: kind %d is not Serve", k)
	}
	m := &Serve{
		Round: model.Round(r.U64()),
		From:  model.NodeID(r.U32()),
		To:    model.NodeID(r.U32()),
		KPrev: r.Bytes(),
	}
	if n := r.ListLen(MinUpdateLen + 8); n > 0 {
		m.Full = make([]ServedUpdate, n)
		for i := range m.Full {
			m.Full[i] = ServedUpdate{Update: r.Update(), Count: r.U64()}
		}
	}
	if n := r.ListLen(UpdateIDLen + 8); n > 0 {
		m.Refs = make([]ServedRef, n)
		for i := range m.Refs {
			m.Refs[i] = ServedRef{ID: r.UpdateID(), Count: r.U64()}
		}
	}
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Attestation (Fig 5, msg 4): ⟨Attestation, R, A, B, H(∏u)_(p_j,M)⟩_A
// ---------------------------------------------------------------------------

// Attestation declares, under the receiver's prime p_j, the hash of the
// served product — split into the expiring and forwardable lists (§V-D):
// monitors acknowledge the first and check the propagation of the second.
type Attestation struct {
	Round model.Round
	From  model.NodeID // A
	To    model.NodeID // B
	// HExpiring is H(∏ expiring u^c)_(p_j,M), fixed-width encoded.
	HExpiring []byte
	// HForwardable is H(∏ forwardable u^c)_(p_j,M).
	HForwardable []byte
	Sig          []byte
}

// Kind implements Message.
func (m *Attestation) Kind() uint8 { return KindAttestation }

func (m *Attestation) body(w *Writer) {
	w.U8(KindAttestation)
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	w.U32(uint32(m.To))
	w.Bytes(m.HExpiring)
	w.Bytes(m.HForwardable)
}

// Marshal implements Message.
func (m *Attestation) Marshal() []byte { return marshal(m, m.Sig) }

// UnmarshalAttestation decodes an Attestation.
func UnmarshalAttestation(b []byte) (*Attestation, error) {
	r := NewReader(b)
	if k := r.U8(); k != KindAttestation && r.Err() == nil {
		return nil, fmt.Errorf("wire: kind %d is not Attestation", k)
	}
	m := &Attestation{
		Round:        model.Round(r.U64()),
		From:         model.NodeID(r.U32()),
		To:           model.NodeID(r.U32()),
		HExpiring:    r.Bytes(),
		HForwardable: r.Bytes(),
	}
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Ack (Fig 5, msg 5): ⟨Ack, R, B, A, H(∏u)_(K(R-1,A),M)⟩_B
// ---------------------------------------------------------------------------

// Ack acknowledges the full served product (both lists) under K(R-1,A);
// A can "later use this message as a proof that it did forward the right
// set of messages to node B during round R" (§V-A).
type Ack struct {
	Round model.Round
	From  model.NodeID // B
	To    model.NodeID // A
	H     []byte       // H(∏ all served u^c)_(K(R-1,A),M)
	Sig   []byte
}

// Kind implements Message.
func (m *Ack) Kind() uint8 { return KindAck }

func (m *Ack) body(w *Writer) {
	w.U8(KindAck)
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	w.U32(uint32(m.To))
	w.Bytes(m.H)
}

// Marshal implements Message.
func (m *Ack) Marshal() []byte { return marshal(m, m.Sig) }

// UnmarshalAck decodes an Ack.
func UnmarshalAck(b []byte) (*Ack, error) {
	r := NewReader(b)
	if k := r.U8(); k != KindAck && r.Err() == nil {
		return nil, fmt.Errorf("wire: kind %d is not Ack", k)
	}
	m := &Ack{
		Round: model.Round(r.U64()),
		From:  model.NodeID(r.U32()),
		To:    model.NodeID(r.U32()),
		H:     r.Bytes(),
	}
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// AttForward (Fig 6, msg 7)
// ---------------------------------------------------------------------------

// AttForward is B's report of one exchange to a single designated monitor
// ("node B sends two messages to only one of its own monitors, to prevent
// monitors from receiving all the products of the prime numbers", §V-B):
// the predecessor's attestation and the remainder product ∏_{k≠j} p_k.
// It travels encrypted to the monitor.
type AttForward struct {
	Round model.Round
	From  model.NodeID // B, the monitored node
	// AttBytes is the marshalled signed Attestation from the predecessor.
	AttBytes []byte
	// Remainder is ∏_{k≠j} p_k over B's round-R primes.
	Remainder []byte
	Sig       []byte
}

// Kind implements Message.
func (m *AttForward) Kind() uint8 { return KindAttForward }

func (m *AttForward) body(w *Writer) {
	w.U8(KindAttForward)
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	w.Bytes(m.AttBytes)
	w.Bytes(m.Remainder)
}

// Marshal implements Message.
func (m *AttForward) Marshal() []byte { return marshal(m, m.Sig) }

// UnmarshalAttForward decodes an AttForward.
func UnmarshalAttForward(b []byte) (*AttForward, error) {
	r := NewReader(b)
	if k := r.U8(); k != KindAttForward && r.Err() == nil {
		return nil, fmt.Errorf("wire: kind %d is not AttForward", k)
	}
	m := &AttForward{
		Round:     model.Round(r.U64()),
		From:      model.NodeID(r.U32()),
		AttBytes:  r.Bytes(),
		Remainder: r.Bytes(),
	}
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// HashShare (Fig 6, msg 8)
// ---------------------------------------------------------------------------

// HashShare is the designated monitor's broadcast to the other monitors of
// the monitored node: the attestation hashes lifted to K(R,B), "along with
// message 6" (the Ack copy).
type HashShare struct {
	Round     model.Round
	From      model.NodeID // the broadcasting monitor
	Monitored model.NodeID // B
	Pred      model.NodeID // A, the predecessor of the exchange
	// HExpLifted / HFwdLifted are the attestation hashes under K(R,B).
	HExpLifted []byte
	HFwdLifted []byte
	// AckBytes is the marshalled Ack copy (message 6).
	AckBytes []byte
	Sig      []byte
}

// Kind implements Message.
func (m *HashShare) Kind() uint8 { return KindHashShare }

func (m *HashShare) body(w *Writer) {
	w.U8(KindHashShare)
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	w.U32(uint32(m.Monitored))
	w.U32(uint32(m.Pred))
	w.Bytes(m.HExpLifted)
	w.Bytes(m.HFwdLifted)
	w.Bytes(m.AckBytes)
}

// Marshal implements Message.
func (m *HashShare) Marshal() []byte { return marshal(m, m.Sig) }

// UnmarshalHashShare decodes a HashShare.
func UnmarshalHashShare(b []byte) (*HashShare, error) {
	r := NewReader(b)
	if k := r.U8(); k != KindHashShare && r.Err() == nil {
		return nil, fmt.Errorf("wire: kind %d is not HashShare", k)
	}
	m := &HashShare{
		Round:      model.Round(r.U64()),
		From:       model.NodeID(r.U32()),
		Monitored:  model.NodeID(r.U32()),
		Pred:       model.NodeID(r.U32()),
		HExpLifted: r.Bytes(),
		HFwdLifted: r.Bytes(),
		AckBytes:   r.Bytes(),
	}
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// AckRelay (Fig 6, msg 9 / §IV-A Confirm)
// ---------------------------------------------------------------------------

// AckRelay wraps a signed Ack relayed between monitoring sets: message 9
// (B's monitors → A's monitors) and the Confirm of the accusation flow
// share this shape.
type AckRelay struct {
	Round model.Round
	From  model.NodeID // relaying monitor
	// AckBytes is the marshalled signed Ack.
	AckBytes []byte
	Sig      []byte
	kind     uint8
}

// NewAckForward builds an AckRelay with the AckForward kind.
func NewAckForward(round model.Round, from model.NodeID, ackBytes []byte) *AckRelay {
	return &AckRelay{Round: round, From: from, AckBytes: ackBytes, kind: KindAckForward}
}

// NewConfirm builds an AckRelay with the Confirm kind.
func NewConfirm(round model.Round, from model.NodeID, ackBytes []byte) *AckRelay {
	return &AckRelay{Round: round, From: from, AckBytes: ackBytes, kind: KindConfirm}
}

// Kind implements Message.
func (m *AckRelay) Kind() uint8 { return m.kind }

func (m *AckRelay) body(w *Writer) {
	w.U8(m.kind)
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	w.Bytes(m.AckBytes)
}

// Marshal implements Message.
func (m *AckRelay) Marshal() []byte { return marshal(m, m.Sig) }

// UnmarshalAckRelay decodes an AckRelay of either kind.
func UnmarshalAckRelay(b []byte) (*AckRelay, error) {
	r := NewReader(b)
	k := r.U8()
	if r.Err() == nil && k != KindAckForward && k != KindConfirm {
		return nil, fmt.Errorf("wire: kind %d is not AckForward/Confirm", k)
	}
	m := &AckRelay{
		Round: model.Round(r.U64()),
		From:  model.NodeID(r.U32()),
		kind:  k,
	}
	m.AckBytes = r.Bytes()
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// NodeDigest (§V-B self-check)
// ---------------------------------------------------------------------------

// NodeDigest is the monitored node's own computation of its obligation:
// "To check that monitors correctly compute and forward the hashes of
// updates, nodes can compute this value and send it to their monitors.
// Monitors are then able to check each other's correctness."
type NodeDigest struct {
	Round model.Round
	From  model.NodeID // the monitored node
	// HFwd is H(∏ forwardable received u^c)_(K(R,From),M).
	HFwd []byte
	Sig  []byte
}

// Kind implements Message.
func (m *NodeDigest) Kind() uint8 { return KindNodeDigest }

func (m *NodeDigest) body(w *Writer) {
	w.U8(KindNodeDigest)
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	w.Bytes(m.HFwd)
}

// Marshal implements Message.
func (m *NodeDigest) Marshal() []byte { return marshal(m, m.Sig) }

// UnmarshalNodeDigest decodes a NodeDigest.
func UnmarshalNodeDigest(b []byte) (*NodeDigest, error) {
	r := NewReader(b)
	if k := r.U8(); k != KindNodeDigest && r.Err() == nil {
		return nil, fmt.Errorf("wire: kind %d is not NodeDigest", k)
	}
	m := &NodeDigest{
		Round: model.Round(r.U64()),
		From:  model.NodeID(r.U32()),
		HFwd:  r.Bytes(),
	}
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Accusation flow (§IV-A)
// ---------------------------------------------------------------------------

// Accusation is A's report to M(B) that B did not acknowledge: it carries
// the encrypted Serve and the attestation so the monitors can "forward it
// to node B and ask for an acknowledgement".
type Accusation struct {
	Round   model.Round
	From    model.NodeID // A
	Against model.NodeID // B
	// ServeCipher is the encrypted Serve A claims to have sent.
	ServeCipher []byte
	// AttBytes is A's marshalled signed Attestation.
	AttBytes []byte
	Sig      []byte
}

// Kind implements Message.
func (m *Accusation) Kind() uint8 { return KindAccusation }

func (m *Accusation) body(w *Writer) {
	w.U8(KindAccusation)
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	w.U32(uint32(m.Against))
	w.Bytes(m.ServeCipher)
	w.Bytes(m.AttBytes)
}

// Marshal implements Message.
func (m *Accusation) Marshal() []byte { return marshal(m, m.Sig) }

// UnmarshalAccusation decodes an Accusation.
func UnmarshalAccusation(b []byte) (*Accusation, error) {
	r := NewReader(b)
	if k := r.U8(); k != KindAccusation && r.Err() == nil {
		return nil, fmt.Errorf("wire: kind %d is not Accusation", k)
	}
	m := &Accusation{
		Round:   model.Round(r.U64()),
		From:    model.NodeID(r.U32()),
		Against: model.NodeID(r.U32()),
	}
	m.ServeCipher = r.Bytes()
	m.AttBytes = r.Bytes()
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// Probe is M(B)'s re-delivery of the accused exchange to B.
type Probe struct {
	Round  model.Round
	From   model.NodeID // the probing monitor
	Origin model.NodeID // A, the accuser
	// ServeCipher / AttBytes are relayed from the accusation.
	ServeCipher []byte
	AttBytes    []byte
	Sig         []byte
}

// Kind implements Message.
func (m *Probe) Kind() uint8 { return KindProbe }

func (m *Probe) body(w *Writer) {
	w.U8(KindProbe)
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	w.U32(uint32(m.Origin))
	w.Bytes(m.ServeCipher)
	w.Bytes(m.AttBytes)
}

// Marshal implements Message.
func (m *Probe) Marshal() []byte { return marshal(m, m.Sig) }

// UnmarshalProbe decodes a Probe.
func UnmarshalProbe(b []byte) (*Probe, error) {
	r := NewReader(b)
	if k := r.U8(); k != KindProbe && r.Err() == nil {
		return nil, fmt.Errorf("wire: kind %d is not Probe", k)
	}
	m := &Probe{
		Round:  model.Round(r.U64()),
		From:   model.NodeID(r.U32()),
		Origin: model.NodeID(r.U32()),
	}
	m.ServeCipher = r.Bytes()
	m.AttBytes = r.Bytes()
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// Nack is M(B)'s notification to M(A) that B stayed unresponsive after the
// probe.
type Nack struct {
	Round   model.Round
	From    model.NodeID // B's monitor
	Accuser model.NodeID // A
	Against model.NodeID // B
	Sig     []byte
}

// Kind implements Message.
func (m *Nack) Kind() uint8 { return KindNack }

func (m *Nack) body(w *Writer) {
	w.U8(KindNack)
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	w.U32(uint32(m.Accuser))
	w.U32(uint32(m.Against))
}

// Marshal implements Message.
func (m *Nack) Marshal() []byte { return marshal(m, m.Sig) }

// UnmarshalNack decodes a Nack.
func UnmarshalNack(b []byte) (*Nack, error) {
	r := NewReader(b)
	if k := r.U8(); k != KindNack && r.Err() == nil {
		return nil, fmt.Errorf("wire: kind %d is not Nack", k)
	}
	m := &Nack{
		Round:   model.Round(r.U64()),
		From:    model.NodeID(r.U32()),
		Accuser: model.NodeID(r.U32()),
		Against: model.NodeID(r.U32()),
	}
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// AckRequest is M(A)'s demand that A exhibit the Ack a successor should
// have sent ("they ask node A for the acknowledgement that node B should
// have sent", §IV-A).
type AckRequest struct {
	Round model.Round
	From  model.NodeID // A's monitor
	Succ  model.NodeID // B
	Sig   []byte
}

// Kind implements Message.
func (m *AckRequest) Kind() uint8 { return KindAckRequest }

func (m *AckRequest) body(w *Writer) {
	w.U8(KindAckRequest)
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	w.U32(uint32(m.Succ))
}

// Marshal implements Message.
func (m *AckRequest) Marshal() []byte { return marshal(m, m.Sig) }

// UnmarshalAckRequest decodes an AckRequest.
func UnmarshalAckRequest(b []byte) (*AckRequest, error) {
	r := NewReader(b)
	if k := r.U8(); k != KindAckRequest && r.Err() == nil {
		return nil, fmt.Errorf("wire: kind %d is not AckRequest", k)
	}
	m := &AckRequest{
		Round: model.Round(r.U64()),
		From:  model.NodeID(r.U32()),
		Succ:  model.NodeID(r.U32()),
	}
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// AckExhibit is A's answer to an AckRequest: the Ack, or the claim that A
// accused the successor instead. "If node A cannot exhibit this
// acknowledgement it is considered guilty because it did not accuse node
// B, otherwise node B is considered guilty" (§IV-A).
type AckExhibit struct {
	Round model.Round
	From  model.NodeID // A
	Succ  model.NodeID // B
	// AckBytes is the marshalled Ack when A has it; empty otherwise.
	AckBytes []byte
	// Accused reports that A raised an accusation against Succ instead.
	Accused bool
	Sig     []byte
}

// Kind implements Message.
func (m *AckExhibit) Kind() uint8 { return KindAckExhibit }

func (m *AckExhibit) body(w *Writer) {
	w.U8(KindAckExhibit)
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	w.U32(uint32(m.Succ))
	w.Bytes(m.AckBytes)
	w.Bool(m.Accused)
}

// Marshal implements Message.
func (m *AckExhibit) Marshal() []byte { return marshal(m, m.Sig) }

// UnmarshalAckExhibit decodes an AckExhibit.
func UnmarshalAckExhibit(b []byte) (*AckExhibit, error) {
	r := NewReader(b)
	if k := r.U8(); k != KindAckExhibit && r.Err() == nil {
		return nil, fmt.Errorf("wire: kind %d is not AckExhibit", k)
	}
	m := &AckExhibit{
		Round: model.Round(r.U64()),
		From:  model.NodeID(r.U32()),
		Succ:  model.NodeID(r.U32()),
	}
	m.AckBytes = r.Bytes()
	m.Accused = r.Bool()
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// ObligationHandover transfers an outgoing monitor's accumulated
// round-`Round` obligation for `Monitored` to a monitor that takes over at
// round Round+1. The obligation is a product of lifted hashes the monitors
// of Monitored already jointly compute (§V-B), so the transfer leaks
// nothing new; the signature pins it to the outgoing monitor, and the
// incoming monitors take a majority over the copies they receive.
type ObligationHandover struct {
	Round     model.Round  // the round the obligation accumulates
	From      model.NodeID // outgoing monitor
	Monitored model.NodeID
	// Obligation is the encoded accumulated hash product.
	Obligation []byte
	// Suspect marks an obligation the digest cross-check proved
	// incomplete — not usable as a conviction baseline.
	Suspect bool
	Sig     []byte
}

// Kind implements Message.
func (m *ObligationHandover) Kind() uint8 { return KindObligationHandover }

func (m *ObligationHandover) body(w *Writer) {
	w.U8(KindObligationHandover)
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	w.U32(uint32(m.Monitored))
	w.Bytes(m.Obligation)
	w.Bool(m.Suspect)
}

// Marshal implements Message.
func (m *ObligationHandover) Marshal() []byte { return marshal(m, m.Sig) }

// UnmarshalObligationHandover decodes an ObligationHandover.
func UnmarshalObligationHandover(b []byte) (*ObligationHandover, error) {
	r := NewReader(b)
	if k := r.U8(); k != KindObligationHandover && r.Err() == nil {
		return nil, fmt.Errorf("wire: kind %d is not ObligationHandover", k)
	}
	m := &ObligationHandover{
		Round:     model.Round(r.U64()),
		From:      model.NodeID(r.U32()),
		Monitored: model.NodeID(r.U32()),
	}
	m.Obligation = r.Bytes()
	m.Suspect = r.Bool()
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}
