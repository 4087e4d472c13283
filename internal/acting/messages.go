package acting

import (
	"repro/internal/model"
	"repro/internal/securelog"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// AcTinG's wire messages, sent and checked on the shared message path
// (internal/wire/pool.go): each type states its fields once, in wire order,
// in a layout that one wire.Codec walks to encode it and to decode it;
// every message is that body followed by the signature as a trailing
// length-prefixed field, decoders return views into the delivered payload,
// and signatures are verified over the received prefix.

// message is an AcTinG message's layout.
type message interface {
	layout(c wire.Codec)
}

// signAndSend encodes m once into a pooled buffer, signs it in place and
// lends it to the send (transport.SendLent: an exact-size copy where the
// Endpoint keeps what it is sent, none where it copies).
func (n *Node) signAndSend(to model.NodeID, kind uint8, m message) {
	w := wire.GetWriter()
	defer w.Release()
	m.layout(w.Codec())
	if w.Sign(n.cfg.Identity) == nil {
		_ = transport.SendLent(n.cfg.Endpoint, kind, w.Finish(), to)
	}
}

// updateIDs carries an identifier list.
func updateIDs(c wire.Codec, ids *[]model.UpdateID) {
	n := c.ListLen(len(*ids), wire.UpdateIDLen)
	if c.Decoding() {
		*ids = make([]model.UpdateID, n)
	}
	for i := range n {
		c.UpdateID(&(*ids)[i])
	}
}

// idList is the content of a tagged identifier-list log entry.
type idList struct {
	Tag []byte
	IDs []model.UpdateID
}

func (l *idList) layout(c wire.Codec) {
	c.Bytes(&l.Tag)
	updateIDs(c, &l.IDs)
}

// logIDs appends a tagged identifier list to the node's secure log.
// AcTinG logs update identifiers in clear — this is precisely the privacy
// leak PAG eliminates (§II-C). The content is encoded in a pooled buffer;
// the log keeps its own exact-size copy.
func (n *Node) logIDs(t securelog.EntryType, peer model.NodeID, tag string, ids []model.UpdateID) {
	w := wire.GetWriter()
	defer w.Release()
	l := idList{Tag: []byte(tag), IDs: ids}
	l.layout(w.Codec())
	n.log.Append(n.round, t, peer, w.Finish())
}

// decodeIDList parses a tagged identifier list from log content.
func decodeIDList(b []byte) (string, []model.UpdateID, error) {
	var l idList
	r := wire.NewReader(b)
	l.layout(r.Codec())
	if err := r.Done(); err != nil {
		return "", nil, err
	}
	return string(l.Tag), l.IDs, nil
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

func (m *proposeMsg) layout(c wire.Codec) {
	c.Kind(kindPropose)
	c.Round(&m.Round)
	c.Node(&m.From)
	c.Node(&m.To)
	updateIDs(c, &m.IDs)
}

func unmarshalPropose(b []byte) (*proposeMsg, error) {
	m, r := new(proposeMsg), wire.NewReader(b)
	m.layout(r.Codec())
	if err := r.Signature(&m.Sig); err != nil {
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

func (m *requestMsg) layout(c wire.Codec) {
	c.Kind(kindRequest)
	c.Round(&m.Round)
	c.Node(&m.From)
	c.Node(&m.To)
	updateIDs(c, &m.IDs)
}

func unmarshalRequest(b []byte) (*requestMsg, error) {
	m, r := new(requestMsg), wire.NewReader(b)
	m.layout(r.Codec())
	if err := r.Signature(&m.Sig); err != nil {
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

func (m *dataMsg) layout(c wire.Codec) {
	c.Kind(kindData)
	c.Round(&m.Round)
	c.Node(&m.From)
	c.Node(&m.To)
	n := c.ListLen(len(m.Updates), wire.MinUpdateLen)
	if c.Decoding() {
		m.Updates = make([]update.Update, n)
	}
	for i := range n {
		c.Update(&m.Updates[i])
	}
}

func unmarshalData(b []byte) (*dataMsg, error) {
	m, r := new(dataMsg), wire.NewReader(b)
	m.layout(r.Codec())
	if err := r.Signature(&m.Sig); err != nil {
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

func (m *complaintMsg) layout(c wire.Codec) {
	c.Kind(kindComplaint)
	c.Round(&m.Round)
	c.Node(&m.From)
	c.Node(&m.Against)
	updateIDs(c, &m.IDs)
}

func unmarshalComplaint(b []byte) (*complaintMsg, error) {
	m, r := new(complaintMsg), wire.NewReader(b)
	m.layout(r.Codec())
	if err := r.Signature(&m.Sig); err != nil {
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

func (m *auditReqMsg) layout(c wire.Codec) {
	c.Kind(kindAuditRequest)
	c.Round(&m.Round)
	c.Node(&m.From)
	c.U64(&m.SinceSeq)
}

func unmarshalAuditReq(b []byte) (*auditReqMsg, error) {
	m, r := new(auditReqMsg), wire.NewReader(b)
	m.layout(r.Codec())
	if err := r.Signature(&m.Sig); err != nil {
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

func (m *auditReplyMsg) layout(c wire.Codec) {
	k := m.kind()
	c.KindOf(&k, kindAuditReply, kindAuditBaseReply)
	c.Round(&m.Round)
	c.Node(&m.From)
	if k == kindAuditBaseReply {
		if m.Base == nil {
			m.Base = new(logBase)
		}
		c.U64(&m.Base.Seq)
		c.Round(&m.Base.Round)
		c.Raw(m.Base.Hash[:])
	}
	n := c.ListLen(len(m.Entries), minEntryLen)
	if c.Decoding() {
		m.Entries = make([]securelog.Entry, n)
	}
	for i := range n {
		e := &m.Entries[i]
		c.U64(&e.Seq)
		c.Round(&e.Round)
		c.U8((*uint8)(&e.Type))
		c.Node(&e.Peer)
		c.Bytes(&e.Content)
		c.Raw(e.Hash[:])
	}
}

func unmarshalAuditReply(b []byte) (*auditReplyMsg, error) {
	m, r := new(auditReplyMsg), wire.NewReader(b)
	m.layout(r.Codec())
	if err := r.Signature(&m.Sig); err != nil {
		return nil, err
	}
	return m, nil
}
