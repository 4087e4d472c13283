// Package securelog implements the tamper-evident, append-only log that
// log-based accountability systems (PeerReview, AVMs, FullReview, AcTinG —
// §II-B) rest on: each entry is chained to its predecessor with a recursive
// hash, and signed authenticators over the log head make equivocation
// (forking the log) provable.
//
// PAG itself is log-less — that is its privacy point — but the AcTinG
// baseline the paper compares against (§VII) audits exactly such logs, so
// the reproduction needs them.
package securelog

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"

	"repro/internal/model"
)

// EntryType distinguishes logged interaction directions.
type EntryType uint8

// Entry types: the paper's example log (Fig 2) records RCV and SND rows.
const (
	EntryRecv EntryType = iota + 1
	EntrySend
)

// String implements fmt.Stringer.
func (t EntryType) String() string {
	switch t {
	case EntryRecv:
		return "RCV"
	case EntrySend:
		return "SND"
	default:
		return fmt.Sprintf("EntryType(%d)", uint8(t))
	}
}

// HashSize is the byte length of chain hashes.
const HashSize = sha256.Size

// Entry is one log record: "the first line of this log specifies that node
// X received {u1} from node P1 during round R" (§II-B).
type Entry struct {
	Seq     uint64
	Round   model.Round
	Type    EntryType
	Peer    model.NodeID
	Content []byte // application payload, e.g. encoded update identifiers

	// Hash = SHA-256(prevHash ‖ header ‖ content): the recursive chain.
	Hash [HashSize]byte
}

// headerLen is the byte length of an entry's hashed header: seq, round,
// type, peer and content length.
const headerLen = 8 + 8 + 1 + 4 + 4

// chainer hashes entries onto a chain with one reused digest. Everything
// it hands the digest lives in the chainer itself, so hashing an entry
// allocates nothing: a hash.Hash is an interface, and a stack array
// passed to its Write or Sum would escape to the heap once per entry.
type chainer struct {
	h    hash.Hash
	prev [HashSize]byte
	hdr  [headerLen]byte
	sum  [HashSize]byte
}

func newChainer() *chainer { return &chainer{h: sha256.New()} }

// hash returns SHA-256(prev ‖ header ‖ content) of e: its chain hash.
func (c *chainer) hash(prev [HashSize]byte, e *Entry) [HashSize]byte {
	c.prev = prev
	binary.BigEndian.PutUint64(c.hdr[0:], e.Seq)
	binary.BigEndian.PutUint64(c.hdr[8:], uint64(e.Round))
	c.hdr[16] = byte(e.Type)
	binary.BigEndian.PutUint32(c.hdr[17:], uint32(e.Peer))
	binary.BigEndian.PutUint32(c.hdr[21:], uint32(len(e.Content)))
	c.h.Reset()
	c.h.Write(c.prev[:])
	c.h.Write(c.hdr[:])
	c.h.Write(e.Content)
	c.h.Sum(c.sum[:0])
	return c.sum
}

// Log is one node's secure log. Zero value is not usable; call New.
//
// A log keeps a suffix of its history: TruncateThrough drops a verified
// prefix, and the base — seq, hash and round of the last dropped entry —
// stands in for it, so the chain still runs unbroken from the base to the
// head. Entry i of the retained suffix carries Seq base+i+1.
type Log struct {
	owner     model.NodeID
	base      uint64
	baseHash  [HashSize]byte
	baseRound model.Round
	entries   []Entry
	chain     *chainer
}

// New creates an empty log owned by a node.
func New(owner model.NodeID) *Log {
	return &Log{owner: owner, chain: newChainer()}
}

// Owner returns the logging node.
func (l *Log) Owner() model.NodeID { return l.owner }

// Len returns the number of retained entries.
func (l *Log) Len() int { return len(l.entries) }

// Base returns the sequence number of the last dropped entry (0 when
// nothing was dropped): the retained suffix starts at Base()+1.
func (l *Log) Base() uint64 { return l.base }

// BaseHash returns the chain hash of the last dropped entry (zero hash when
// nothing was dropped) — the hash the retained suffix chains from.
func (l *Log) BaseHash() [HashSize]byte { return l.baseHash }

// BaseRound returns the round of the last dropped entry (0 when nothing
// was dropped).
func (l *Log) BaseRound() model.Round { return l.baseRound }

// Head returns the hash of the latest entry (the base hash when no entry is
// retained).
func (l *Log) Head() [HashSize]byte {
	if len(l.entries) == 0 {
		return l.baseHash
	}
	return l.entries[len(l.entries)-1].Hash
}

// HeadSeq returns the sequence number of the latest entry (the base when no
// entry is retained; sequence numbers start at 1).
func (l *Log) HeadSeq() uint64 {
	return l.base + uint64(len(l.entries))
}

// Append adds a record and returns a copy of the sealed entry.
func (l *Log) Append(r model.Round, t EntryType, peer model.NodeID, content []byte) Entry {
	e := Entry{
		Seq:     l.HeadSeq() + 1,
		Round:   r,
		Type:    t,
		Peer:    peer,
		Content: append([]byte(nil), content...),
	}
	e.Hash = l.chain.hash(l.Head(), &e)
	l.entries = append(l.entries, e)
	return e
}

// Suffix returns the retained entries with Seq > seq, in order, as a
// read-only view of the log itself — what the owner encodes into an audit
// reply. A seq below the base yields the whole retained suffix. Entries
// are consecutive from the base, so the suffix is a tail slice, not a
// scan; the view is only valid until the next TruncateThrough.
func (l *Log) Suffix(seq uint64) []Entry {
	i := max(seq, l.base) - l.base
	if i >= uint64(len(l.entries)) {
		return nil
	}
	return l.entries[i:]
}

// Since returns copies of the retained entries with Seq > seq, in order —
// the suffix an auditor fetches.
func (l *Log) Since(seq uint64) []Entry {
	var out []Entry
	for _, e := range l.Suffix(seq) {
		e.Content = append([]byte(nil), e.Content...)
		out = append(out, e)
	}
	return out
}

// entry returns the retained entry with the given sequence number.
func (l *Log) entry(seq uint64) *Entry {
	if seq <= l.base || seq > l.HeadSeq() {
		return nil
	}
	return &l.entries[seq-l.base-1]
}

// EntryAt returns a copy of the retained entry with the given sequence
// number; false at or below the base.
func (l *Log) EntryAt(seq uint64) (Entry, bool) {
	p := l.entry(seq)
	if p == nil {
		return Entry{}, false
	}
	e := *p
	e.Content = append([]byte(nil), p.Content...)
	return e, true
}

// Tamper overwrites the content of entry seq in place *without* re-chaining
// — a fault-injection helper for tests and experiments. It returns false if
// the entry is not retained.
func (l *Log) Tamper(seq uint64, content []byte) bool {
	p := l.entry(seq)
	if p == nil {
		return false
	}
	p.Content = append([]byte(nil), content...)
	return true
}

// TruncateThrough drops every entry with Seq ≤ seq (capped at the head) and
// makes the last of them the base. It works in place — the retained suffix
// is copied down and the vacated tail cleared — so it allocates nothing and
// a log truncated as fast as it grows stops regrowing its backing array. A
// seq at or below the base is a no-op.
func (l *Log) TruncateThrough(seq uint64) {
	seq = min(seq, l.HeadSeq())
	if seq <= l.base {
		return
	}
	k := seq - l.base
	last := &l.entries[k-1]
	l.base, l.baseHash, l.baseRound = seq, last.Hash, last.Round
	n := copy(l.entries, l.entries[k:])
	clear(l.entries[n:])
	l.entries = l.entries[:n]
}

// VerifyChain checks a fetched suffix: that it starts from baseHash at
// baseSeq, sequence numbers are consecutive and every chain hash is
// correct. It returns the first inconsistency found. One digest hashes the
// whole suffix, so a check allocates the same whatever its length.
func VerifyChain(baseSeq uint64, baseHash [HashSize]byte, entries []Entry) error {
	c := newChainer()
	prevHash := baseHash
	prevSeq := baseSeq
	for i := range entries {
		e := &entries[i]
		if e.Seq != prevSeq+1 {
			return fmt.Errorf("securelog: entry %d has seq %d, want %d",
				i, e.Seq, prevSeq+1)
		}
		if c.hash(prevHash, e) != e.Hash {
			return fmt.Errorf("securelog: entry seq %d fails chain hash", e.Seq)
		}
		prevHash = e.Hash
		prevSeq = e.Seq
	}
	return nil
}

// ---------------------------------------------------------------------------
// Authenticators
// ---------------------------------------------------------------------------

// Signer abstracts the log owner's identity (mirrors pki.Identity.Sign
// without importing pki).
type Signer interface {
	Sign(msg []byte) ([]byte, error)
}

// Verifier abstracts signature checking (mirrors pki.Suite.Verify).
type Verifier interface {
	Verify(signer model.NodeID, msg, sig []byte) error
}

// Authenticator is a signed statement binding a node to a log head: "my log
// at seq S has head hash H". Receivers keep them; two conflicting
// authenticators are a transferable proof of log forking.
type Authenticator struct {
	Node model.NodeID
	Seq  uint64
	Head [HashSize]byte
	Sig  []byte
}

// authBytes is the signed preimage.
func authBytes(node model.NodeID, seq uint64, head [HashSize]byte) []byte {
	buf := make([]byte, 0, 4+8+HashSize)
	buf = binary.BigEndian.AppendUint32(buf, uint32(node))
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = append(buf, head[:]...)
	return buf
}

// Authenticate produces a signed authenticator over the current log head.
func (l *Log) Authenticate(s Signer) (Authenticator, error) {
	a := Authenticator{Node: l.owner, Seq: l.HeadSeq(), Head: l.Head()}
	sig, err := s.Sign(authBytes(a.Node, a.Seq, a.Head))
	if err != nil {
		return Authenticator{}, fmt.Errorf("securelog: signing authenticator: %w", err)
	}
	a.Sig = sig
	return a, nil
}

// VerifyAuthenticator checks an authenticator's signature.
func VerifyAuthenticator(v Verifier, a Authenticator) error {
	return v.Verify(a.Node, authBytes(a.Node, a.Seq, a.Head), a.Sig)
}

// ErrFork is returned when two authenticators prove log equivocation.
var ErrFork = errors.New("securelog: conflicting authenticators (log fork)")

// CheckFork compares two verified authenticators from the same node: equal
// sequence numbers with different heads prove a fork.
func CheckFork(a, b Authenticator) error {
	if a.Node != b.Node {
		return errors.New("securelog: authenticators from different nodes")
	}
	if a.Seq == b.Seq && !bytes.Equal(a.Head[:], b.Head[:]) {
		return ErrFork
	}
	return nil
}
