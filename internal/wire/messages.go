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
	// KindObligationHandover is retired: it numbered an obligation
	// transfer between monitors at a monitor-rotation boundary, and
	// monitor rotation is gone. No message has this kind, and a node
	// reports a frame of it as an unknown kind. The number stays reserved
	// so it is never reused for a different message.
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
	default:
		return fmt.Sprintf("Kind(%d)", k)
	}
}

// Decoding in place. Every message type has a Decode method that decodes
// into the message it is called on, so a receiver can keep one shell per
// kind and decode every arrival into it. Decode overwrites every field,
// even when it fails (a field past the failure reads zero), and reuses the
// arrays of the lists: a list is resliced to its new length when its array
// has room, and the entries a shorter list leaves behind are zeroed, so no
// view of an earlier input survives in the shell. Decoding nothing,
// Decode(nil), therefore empties a shell and keeps its arrays. Byte fields
// are views into b.

// Message is the common surface of all wire messages.
type Message interface {
	// Kind returns the transport envelope kind.
	Kind() uint8
	// Marshal returns the full encoding: the deterministic body the
	// signature covers, then the signature as a length-prefixed field.
	Marshal() []byte
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

func (m *KeyRequest) layout(c Codec) {
	c.Kind(KindKeyRequest)
	c.Round(&m.Round)
	c.Node(&m.From)
	c.Node(&m.To)
}

// Marshal implements Message.
func (m *KeyRequest) Marshal() []byte { return marshal(m, m.Sig) }

// Decode decodes b into m in place (see "Decoding in place").
func (m *KeyRequest) Decode(b []byte) error {
	r := NewReader(b)
	m.layout(r.Codec())
	return r.Signature(&m.Sig)
}

// ---------------------------------------------------------------------------
// KeyResponse (Fig 5, msg 2): {⟨KeyResponse, R, B, A, p_j, H(u_{i∈S_B})⟩_B}_pk(A)
// ---------------------------------------------------------------------------

// BufTagBytes is the width of one buffermap entry on the wire: a 64-bit
// tag of u keyed by p_j (hhash.Hasher.Tags) where the paper sends
// H(u)_(p_j,M). The requester only tests entries for membership, so the
// full-width value buys nothing; two distinct updates whose tags agree is
// the one way a tag can mislead (DESIGN.md, "Bytes on the wire", gives the
// bound).
const BufTagBytes = 8

// errUnsortedBufferMap rejects a buffermap whose tags are not strictly
// ascending: a set has one encoding.
var errUnsortedBufferMap = errors.New("wire: buffermap tags not strictly ascending")

// KeyResponse carries the fresh prime and the buffermap: the tags, keyed
// by that prime, of the updates the responder owns in the buffermap
// window (§V-D). It travels encrypted to the requester.
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

func (m *KeyResponse) layout(c Codec) {
	c.Kind(KindKeyResponse)
	c.Round(&m.Round)
	c.Node(&m.From)
	c.Node(&m.To)
	c.Bytes(&m.Prime)
	n := c.ListLen(len(m.BufferMap), BufTagBytes)
	if c.Decoding() {
		m.BufferMap = resize(m.BufferMap, n)
	}
	for i := range n {
		c.U64(&m.BufferMap[i])
		if i > 0 && m.BufferMap[i] <= m.BufferMap[i-1] {
			c.Reject(errUnsortedBufferMap)
		}
	}
}

// Marshal implements Message.
func (m *KeyResponse) Marshal() []byte { return marshal(m, m.Sig) }

// Decode decodes b into m in place (see "Decoding in place").
func (m *KeyResponse) Decode(b []byte) error {
	r := NewReader(b)
	m.layout(r.Codec())
	return r.Signature(&m.Sig)
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

func (m *Serve) layout(c Codec) {
	c.Kind(KindServe)
	c.Round(&m.Round)
	c.Node(&m.From)
	c.Node(&m.To)
	c.Bytes(&m.KPrev)
	n := c.ListLen(len(m.Full), MinUpdateLen+8)
	if c.Decoding() {
		m.Full = resize(m.Full, n)
	}
	for i := range n {
		c.Update(&m.Full[i].Update)
		c.U64(&m.Full[i].Count)
	}
	n = c.ListLen(len(m.Refs), UpdateIDLen+8)
	if c.Decoding() {
		m.Refs = resize(m.Refs, n)
	}
	for i := range n {
		c.UpdateID(&m.Refs[i].ID)
		c.U64(&m.Refs[i].Count)
	}
}

// SealedLen returns the length Seal gives m under a signature of sigSize
// bytes, so a sender can size the buffer before encoding.
func (m *Serve) SealedLen(sigSize int) int {
	n := 1 + 8 + 4 + 4 + 4 + len(m.KPrev) + 4 + 4 + sigPrefixLen + sigSize
	for i := range m.Full {
		u := &m.Full[i].Update
		n += UpdateIDLen + 8 + 4 + len(u.Payload) + 4 + len(u.SrcSig) + 8
	}
	return n + len(m.Refs)*(UpdateIDLen+8)
}

// Marshal implements Message.
func (m *Serve) Marshal() []byte { return marshal(m, m.Sig) }

// Decode decodes b into m in place (see "Decoding in place").
func (m *Serve) Decode(b []byte) error {
	r := NewReader(b)
	m.layout(r.Codec())
	return r.Signature(&m.Sig)
}

// UnmarshalServe decodes a Serve.
func UnmarshalServe(b []byte) (*Serve, error) {
	m := new(Serve)
	if err := m.Decode(b); err != nil {
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

func (m *Attestation) layout(c Codec) {
	c.Kind(KindAttestation)
	c.Round(&m.Round)
	c.Node(&m.From)
	c.Node(&m.To)
	c.Bytes(&m.HExpiring)
	c.Bytes(&m.HForwardable)
}

// Marshal implements Message.
func (m *Attestation) Marshal() []byte { return marshal(m, m.Sig) }

// Decode decodes b into m in place (see "Decoding in place").
func (m *Attestation) Decode(b []byte) error {
	r := NewReader(b)
	m.layout(r.Codec())
	return r.Signature(&m.Sig)
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

func (m *Ack) layout(c Codec) {
	c.Kind(KindAck)
	c.Round(&m.Round)
	c.Node(&m.From)
	c.Node(&m.To)
	c.Bytes(&m.H)
}

// Marshal implements Message.
func (m *Ack) Marshal() []byte { return marshal(m, m.Sig) }

// Decode decodes b into m in place (see "Decoding in place").
func (m *Ack) Decode(b []byte) error {
	r := NewReader(b)
	m.layout(r.Codec())
	return r.Signature(&m.Sig)
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

func (m *AttForward) layout(c Codec) {
	c.Kind(KindAttForward)
	c.Round(&m.Round)
	c.Node(&m.From)
	c.Bytes(&m.AttBytes)
	c.Bytes(&m.Remainder)
}

// Marshal implements Message.
func (m *AttForward) Marshal() []byte { return marshal(m, m.Sig) }

// Decode decodes b into m in place (see "Decoding in place").
func (m *AttForward) Decode(b []byte) error {
	r := NewReader(b)
	m.layout(r.Codec())
	return r.Signature(&m.Sig)
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

func (m *HashShare) layout(c Codec) {
	c.Kind(KindHashShare)
	c.Round(&m.Round)
	c.Node(&m.From)
	c.Node(&m.Monitored)
	c.Node(&m.Pred)
	c.Bytes(&m.HExpLifted)
	c.Bytes(&m.HFwdLifted)
	c.Bytes(&m.AckBytes)
}

// Marshal implements Message.
func (m *HashShare) Marshal() []byte { return marshal(m, m.Sig) }

// Decode decodes b into m in place (see "Decoding in place").
func (m *HashShare) Decode(b []byte) error {
	r := NewReader(b)
	m.layout(r.Codec())
	return r.Signature(&m.Sig)
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

func (m *AckRelay) layout(c Codec) {
	c.KindOf(&m.kind, KindAckForward, KindConfirm)
	c.Round(&m.Round)
	c.Node(&m.From)
	c.Bytes(&m.AckBytes)
}

// Marshal implements Message.
func (m *AckRelay) Marshal() []byte { return marshal(m, m.Sig) }

// Decode decodes b into m in place (see "Decoding in place").
func (m *AckRelay) Decode(b []byte) error {
	r := NewReader(b)
	m.layout(r.Codec())
	return r.Signature(&m.Sig)
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

func (m *NodeDigest) layout(c Codec) {
	c.Kind(KindNodeDigest)
	c.Round(&m.Round)
	c.Node(&m.From)
	c.Bytes(&m.HFwd)
}

// Marshal implements Message.
func (m *NodeDigest) Marshal() []byte { return marshal(m, m.Sig) }

// Decode decodes b into m in place (see "Decoding in place").
func (m *NodeDigest) Decode(b []byte) error {
	r := NewReader(b)
	m.layout(r.Codec())
	return r.Signature(&m.Sig)
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

func (m *Accusation) layout(c Codec) {
	c.Kind(KindAccusation)
	c.Round(&m.Round)
	c.Node(&m.From)
	c.Node(&m.Against)
	c.Bytes(&m.ServeCipher)
	c.Bytes(&m.AttBytes)
}

// Marshal implements Message.
func (m *Accusation) Marshal() []byte { return marshal(m, m.Sig) }

// Decode decodes b into m in place (see "Decoding in place").
func (m *Accusation) Decode(b []byte) error {
	r := NewReader(b)
	m.layout(r.Codec())
	return r.Signature(&m.Sig)
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

func (m *Probe) layout(c Codec) {
	c.Kind(KindProbe)
	c.Round(&m.Round)
	c.Node(&m.From)
	c.Node(&m.Origin)
	c.Bytes(&m.ServeCipher)
	c.Bytes(&m.AttBytes)
}

// Marshal implements Message.
func (m *Probe) Marshal() []byte { return marshal(m, m.Sig) }

// Decode decodes b into m in place (see "Decoding in place").
func (m *Probe) Decode(b []byte) error {
	r := NewReader(b)
	m.layout(r.Codec())
	return r.Signature(&m.Sig)
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

func (m *Nack) layout(c Codec) {
	c.Kind(KindNack)
	c.Round(&m.Round)
	c.Node(&m.From)
	c.Node(&m.Accuser)
	c.Node(&m.Against)
}

// Marshal implements Message.
func (m *Nack) Marshal() []byte { return marshal(m, m.Sig) }

// Decode decodes b into m in place (see "Decoding in place").
func (m *Nack) Decode(b []byte) error {
	r := NewReader(b)
	m.layout(r.Codec())
	return r.Signature(&m.Sig)
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

func (m *AckRequest) layout(c Codec) {
	c.Kind(KindAckRequest)
	c.Round(&m.Round)
	c.Node(&m.From)
	c.Node(&m.Succ)
}

// Marshal implements Message.
func (m *AckRequest) Marshal() []byte { return marshal(m, m.Sig) }

// Decode decodes b into m in place (see "Decoding in place").
func (m *AckRequest) Decode(b []byte) error {
	r := NewReader(b)
	m.layout(r.Codec())
	return r.Signature(&m.Sig)
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

func (m *AckExhibit) layout(c Codec) {
	c.Kind(KindAckExhibit)
	c.Round(&m.Round)
	c.Node(&m.From)
	c.Node(&m.Succ)
	c.Bytes(&m.AckBytes)
	c.Bool(&m.Accused)
}

// Marshal implements Message.
func (m *AckExhibit) Marshal() []byte { return marshal(m, m.Sig) }

// Decode decodes b into m in place (see "Decoding in place").
func (m *AckExhibit) Decode(b []byte) error {
	r := NewReader(b)
	m.layout(r.Codec())
	return r.Signature(&m.Sig)
}

// Head is the part of a decoded message every receiver checks first: its
// round, its sender, its receiver (NoNode where the kind names none) and
// its signature.
type Head struct {
	Round    model.Round
	From, To model.NodeID
	Sig      []byte
}

// Head returns m's head; every message type has one.
func (m *KeyRequest) Head() Head  { return Head{m.Round, m.From, m.To, m.Sig} }
func (m *KeyResponse) Head() Head { return Head{m.Round, m.From, m.To, m.Sig} }
func (m *Serve) Head() Head       { return Head{m.Round, m.From, m.To, m.Sig} }
func (m *Attestation) Head() Head { return Head{m.Round, m.From, m.To, m.Sig} }
func (m *Ack) Head() Head         { return Head{m.Round, m.From, m.To, m.Sig} }
func (m *AttForward) Head() Head  { return Head{m.Round, m.From, model.NoNode, m.Sig} }
func (m *HashShare) Head() Head   { return Head{m.Round, m.From, model.NoNode, m.Sig} }
func (m *AckRelay) Head() Head    { return Head{m.Round, m.From, model.NoNode, m.Sig} }
func (m *NodeDigest) Head() Head  { return Head{m.Round, m.From, model.NoNode, m.Sig} }
func (m *Accusation) Head() Head  { return Head{m.Round, m.From, model.NoNode, m.Sig} }
func (m *Probe) Head() Head       { return Head{m.Round, m.From, model.NoNode, m.Sig} }
func (m *Nack) Head() Head        { return Head{m.Round, m.From, model.NoNode, m.Sig} }
func (m *AckRequest) Head() Head  { return Head{m.Round, m.From, model.NoNode, m.Sig} }
func (m *AckExhibit) Head() Head  { return Head{m.Round, m.From, model.NoNode, m.Sig} }
