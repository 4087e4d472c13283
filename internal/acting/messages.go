package acting

import (
	"bytes"
	"fmt"

	"repro/internal/model"
	"repro/internal/securelog"
	"repro/internal/update"
	"repro/internal/wire"
)

// AcTinG's wire messages, encoded with the shared deterministic codec and
// sent and checked on the shared message path (internal/wire/pool.go):
// every message is its body followed by the signature as a trailing
// length-prefixed field, decoders return views into the delivered payload,
// and signatures are verified over the received prefix.

// message is an AcTinG message's deterministic body encoder.
type message interface {
	body(w *wire.Writer)
}

// signAndSend encodes m once into a pooled buffer, signs it in place and
// transmits an exact-size copy: the Endpoint owns what it is sent.
func (n *Node) signAndSend(to model.NodeID, kind uint8, m message) {
	w := wire.GetWriter()
	defer w.Release()
	m.body(w)
	if w.Sign(n.cfg.Identity) == nil {
		_ = n.cfg.Endpoint.Send(to, kind, bytes.Clone(w.Finish()))
	}
}

func putIDs(w *wire.Writer, ids []model.UpdateID) {
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.UpdateID(id)
	}
}

func getIDs(r *wire.Reader) []model.UpdateID {
	out := make([]model.UpdateID, r.ListLen(wire.UpdateIDLen))
	for i := range out {
		out[i] = r.UpdateID()
	}
	return out
}

// logIDs appends a tagged identifier list to the node's secure log.
// AcTinG logs update identifiers in clear — this is precisely the privacy
// leak PAG eliminates (§II-C). The content is encoded in a pooled buffer;
// the log keeps its own exact-size copy.
func (n *Node) logIDs(t securelog.EntryType, peer model.NodeID, tag string, ids []model.UpdateID) {
	w := wire.GetWriter()
	defer w.Release()
	w.Bytes([]byte(tag))
	putIDs(w, ids)
	n.log.Append(n.round, t, peer, w.Finish())
}

// decodeIDList parses a tagged identifier list from log content.
func decodeIDList(b []byte) (string, []model.UpdateID, error) {
	r := wire.NewReader(b)
	tag := string(r.Bytes())
	ids := getIDs(r)
	if err := r.Done(); err != nil {
		return "", nil, err
	}
	return tag, ids, nil
}

// ---------------------------------------------------------------------------
// propose / request / data / complaint
// ---------------------------------------------------------------------------

type proposeMsg struct {
	Round model.Round
	From  model.NodeID
	To    model.NodeID
	IDs   []model.UpdateID
	Sig   []byte
}

func (m *proposeMsg) body(w *wire.Writer) {
	w.U8(kindPropose)
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	w.U32(uint32(m.To))
	putIDs(w, m.IDs)
}

func unmarshalPropose(b []byte) (*proposeMsg, error) {
	r := wire.NewReader(b)
	if k := r.U8(); k != kindPropose && r.Err() == nil {
		return nil, fmt.Errorf("acting: kind %d is not propose", k)
	}
	m := &proposeMsg{
		Round: model.Round(r.U64()),
		From:  model.NodeID(r.U32()),
		To:    model.NodeID(r.U32()),
		IDs:   getIDs(r),
	}
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

type requestMsg struct {
	Round model.Round
	From  model.NodeID
	To    model.NodeID
	IDs   []model.UpdateID
	Sig   []byte
}

func (m *requestMsg) body(w *wire.Writer) {
	w.U8(kindRequest)
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	w.U32(uint32(m.To))
	putIDs(w, m.IDs)
}

func unmarshalRequest(b []byte) (*requestMsg, error) {
	r := wire.NewReader(b)
	if k := r.U8(); k != kindRequest && r.Err() == nil {
		return nil, fmt.Errorf("acting: kind %d is not request", k)
	}
	m := &requestMsg{
		Round: model.Round(r.U64()),
		From:  model.NodeID(r.U32()),
		To:    model.NodeID(r.U32()),
		IDs:   getIDs(r),
	}
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// dataMsg carries full updates. Decoded, their payloads and source
// signatures are views into the delivered message.
type dataMsg struct {
	Round   model.Round
	From    model.NodeID
	To      model.NodeID
	Updates []update.Update
	Sig     []byte
}

func (m *dataMsg) body(w *wire.Writer) {
	w.U8(kindData)
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	w.U32(uint32(m.To))
	w.U32(uint32(len(m.Updates)))
	for i := range m.Updates {
		w.Update(&m.Updates[i])
	}
}

func unmarshalData(b []byte) (*dataMsg, error) {
	r := wire.NewReader(b)
	if k := r.U8(); k != kindData && r.Err() == nil {
		return nil, fmt.Errorf("acting: kind %d is not data", k)
	}
	m := &dataMsg{
		Round: model.Round(r.U64()),
		From:  model.NodeID(r.U32()),
		To:    model.NodeID(r.U32()),
	}
	m.Updates = make([]update.Update, r.ListLen(wire.MinUpdateLen))
	for i := range m.Updates {
		m.Updates[i] = r.Update()
	}
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

type complaintMsg struct {
	Round   model.Round
	From    model.NodeID
	Against model.NodeID
	IDs     []model.UpdateID
	Sig     []byte
}

func (m *complaintMsg) body(w *wire.Writer) {
	w.U8(kindComplaint)
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	w.U32(uint32(m.Against))
	putIDs(w, m.IDs)
}

func unmarshalComplaint(b []byte) (*complaintMsg, error) {
	r := wire.NewReader(b)
	if k := r.U8(); k != kindComplaint && r.Err() == nil {
		return nil, fmt.Errorf("acting: kind %d is not complaint", k)
	}
	m := &complaintMsg{
		Round:   model.Round(r.U64()),
		From:    model.NodeID(r.U32()),
		Against: model.NodeID(r.U32()),
		IDs:     getIDs(r),
	}
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// audit request / reply
// ---------------------------------------------------------------------------

type auditReqMsg struct {
	Round    model.Round
	From     model.NodeID
	SinceSeq uint64
	Sig      []byte
}

func (m *auditReqMsg) body(w *wire.Writer) {
	w.U8(kindAuditRequest)
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	w.U64(m.SinceSeq)
}

func unmarshalAuditReq(b []byte) (*auditReqMsg, error) {
	r := wire.NewReader(b)
	if k := r.U8(); k != kindAuditRequest && r.Err() == nil {
		return nil, fmt.Errorf("acting: kind %d is not audit request", k)
	}
	m := &auditReqMsg{
		Round:    model.Round(r.U64()),
		From:     model.NodeID(r.U32()),
		SinceSeq: r.U64(),
	}
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// auditReplyMsg carries a log suffix. Decoded, the entries' contents are
// views into the delivered message. A reply whose suffix starts right
// after the requested seq has no Base; one to a request below the owner's
// base (a monitor seated after the log was truncated) carries it, under its
// own kind, and is otherwise encoded the same.
type auditReplyMsg struct {
	Round   model.Round
	From    model.NodeID
	Base    *logBase
	Entries []securelog.Entry
	Sig     []byte
}

// logBase is the last entry a log dropped: where its retained suffix chains
// from, and the round that entry was logged in.
type logBase struct {
	Seq   uint64
	Round model.Round
	Hash  [securelog.HashSize]byte
}

// minEntryLen is the encoding of a log entry with empty content.
const minEntryLen = 8 + 8 + 1 + 4 + 4 + securelog.HashSize

func (m *auditReplyMsg) kind() uint8 {
	if m.Base != nil {
		return kindAuditBaseReply
	}
	return kindAuditReply
}

func (m *auditReplyMsg) body(w *wire.Writer) {
	w.U8(m.kind())
	w.U64(uint64(m.Round))
	w.U32(uint32(m.From))
	if b := m.Base; b != nil {
		w.U64(b.Seq)
		w.U64(uint64(b.Round))
		w.Raw(b.Hash[:])
	}
	w.U32(uint32(len(m.Entries)))
	for i := range m.Entries {
		e := &m.Entries[i]
		w.U64(e.Seq)
		w.U64(uint64(e.Round))
		w.U8(uint8(e.Type))
		w.U32(uint32(e.Peer))
		w.Bytes(e.Content)
		w.Raw(e.Hash[:])
	}
}

func unmarshalAuditReply(b []byte) (*auditReplyMsg, error) {
	r := wire.NewReader(b)
	k := r.U8()
	if k != kindAuditReply && k != kindAuditBaseReply && r.Err() == nil {
		return nil, fmt.Errorf("acting: kind %d is not audit reply", k)
	}
	m := &auditReplyMsg{
		Round: model.Round(r.U64()),
		From:  model.NodeID(r.U32()),
	}
	if k == kindAuditBaseReply {
		m.Base = &logBase{Seq: r.U64(), Round: model.Round(r.U64())}
		copy(m.Base.Hash[:], r.Raw(securelog.HashSize))
	}
	m.Entries = make([]securelog.Entry, r.ListLen(minEntryLen))
	for i := range m.Entries {
		e := &m.Entries[i]
		e.Seq = r.U64()
		e.Round = model.Round(r.U64())
		e.Type = securelog.EntryType(r.U8())
		e.Peer = model.NodeID(r.U32())
		e.Content = r.Bytes()
		copy(e.Hash[:], r.Raw(securelog.HashSize))
	}
	m.Sig = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}
