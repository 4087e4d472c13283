// Package update models the disseminated data chunks ("updates") of a
// gossip session and the per-node update store: reception multiplicities
// (§V-D "Multiple receptions"), buffermaps as sets of 64-bit tags keyed by
// an exchange's prime (§V-D "Buffermap transmissions", hhash.Hasher.Tags)
// and expiration (§V-D "Expiration of updates"). A store entry caches its
// update's embedding, which the tags hash and the attestations lift.
package update

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"slices"

	"repro/internal/model"
)

// Update is one data chunk. "Each content is generated and signed by its
// source. Updates are propagated along with their signature so that they
// can be verified by the nodes upon reception, which prevents data
// tampering" (§III).
type Update struct {
	ID       model.UpdateID
	Deadline model.Round // round after which the update must stop propagating
	Payload  []byte
	SrcSig   []byte // source signature over CanonicalBytes
}

// CanonicalBytes returns the deterministic encoding that the source signs
// and that the homomorphic hash embeds. Two updates with equal canonical
// bytes are the same update.
func (u *Update) CanonicalBytes() []byte {
	return u.AppendCanonical(make([]byte, 0, 4+8+8+4+len(u.Payload)))
}

// AppendCanonical appends the canonical encoding to dst: the form for
// callers that only hash or verify the bytes and bring their own buffer.
func (u *Update) AppendCanonical(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(u.ID.Stream))
	dst = binary.BigEndian.AppendUint64(dst, u.ID.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(u.Deadline))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(u.Payload)))
	return append(dst, u.Payload...)
}

// Clone returns u with private copies of Payload and SrcSig. A decoded
// update aliases the message it arrived in; a store that keeps it without
// the session interner clones it first.
func (u Update) Clone() Update {
	u.Payload = bytes.Clone(u.Payload)
	u.SrcSig = bytes.Clone(u.SrcSig)
	return u
}

// Expired reports whether the update must no longer be forwarded at the
// given round.
func (u *Update) Expired(r model.Round) bool { return u.Deadline < r }

// ExpiresNextRound reports whether a node forwarding at round r must place
// the update in the "do not re-forward" list (§V-D): the receiver would
// only forward it at r+1, when it is already expired.
func (u *Update) ExpiresNextRound(r model.Round) bool { return u.Deadline < r+1 }

// Entry is one stored update with its reception bookkeeping.
type Entry struct {
	Update Update
	// Received is the round the update was first accepted.
	Received model.Round
	// Count is the total reception multiplicity: the sum of the
	// multiplicity integers joined to every Serve that carried the
	// update (§V-D). The obligation hash uses u^Count.
	Count uint64
	// Delivered marks handoff to the application (media player).
	Delivered bool
	// Embed caches the protocol layer's homomorphic-hash embedding of the
	// update bytes (u^1 mod M): every buffermap tag hashes this value,
	// every serve attestation and acknowledgement lifts it, and it never
	// changes once the update is stored (the interner's object when the
	// content is interned). nil until first computed; read-only.
	Embed *big.Int
}

// Store is a single node's update store. It is not safe for concurrent use;
// protocol nodes are single-threaded within a round.
//
// Entries are allocated from chunked slabs and recycled through a free
// list when DropBefore retires them: a steady-state node churns ~7 entries
// per round for dozens of rounds, and slab reuse keeps that churn from
// ever reaching the garbage collector (the flyweight memory plane; entry
// *content* is shared across nodes by Interner).
type Store struct {
	byID    map[model.UpdateID]*Entry
	byRound map[model.Round][]model.UpdateID // reception round index
	// maxLife is the longest any stored update had left to live when it was
	// received (deadline − reception round): how far back Live must
	// look for entries that have not expired.
	maxLife model.Round
	// pending indexes the entries not yet handed to the application, in
	// no particular order: Add appends, Undelivered drops what its caller
	// marked Delivered since the last call, DropBefore what it retires.
	// It is what Undelivered walks instead of byID, which also holds the
	// delivered entries of the whole retention window.
	pending []*Entry
	free    []*Entry // retired (zeroed) entries awaiting reuse
	chunk   []Entry  // tail of the current slab
}

// storeChunkEntries sizes the entry slabs: one allocation covers several
// rounds of receptions at the paper's stream rate.
const storeChunkEntries = 32

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{
		byID:    make(map[model.UpdateID]*Entry),
		byRound: make(map[model.Round][]model.UpdateID),
	}
}

// alloc hands out a zeroed Entry from the free list (DropBefore zeroes
// what it retires) or the current slab.
func (s *Store) alloc() *Entry {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free = s.free[:n-1]
		return e
	}
	if len(s.chunk) == 0 {
		s.chunk = make([]Entry, storeChunkEntries)
	}
	e := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return e
}

// Len returns the number of stored updates.
func (s *Store) Len() int { return len(s.byID) }

// Has reports whether the update is stored.
func (s *Store) Has(id model.UpdateID) bool {
	_, ok := s.byID[id]
	return ok
}

// Get returns the entry for id, or nil.
func (s *Store) Get(id model.UpdateID) *Entry { return s.byID[id] }

// Add records the reception of u at round r with multiplicity count.
// If the update is already stored only the multiplicity is accumulated,
// matching the paper's accounting: the node still owes u^count to its
// monitors even for duplicates. It returns true when the update was new.
func (s *Store) Add(u Update, r model.Round, count uint64) bool {
	if count == 0 {
		count = 1
	}
	if e, ok := s.byID[u.ID]; ok {
		e.Count += count
		return false
	}
	e := s.alloc()
	e.Update = u
	e.Received = r
	e.Count = count
	s.byID[u.ID] = e
	s.byRound[r] = append(s.byRound[r], u.ID)
	s.pending = append(s.pending, e)
	if u.Deadline > r && u.Deadline-r > s.maxLife {
		s.maxLife = u.Deadline - r
	}
	return true
}

// ReceivedIn returns the entries first received during round r, in
// canonical (UpdateID) order — the set S_X a node must forward at r+1.
func (s *Store) ReceivedIn(r model.Round) []*Entry {
	ids := s.byRound[r]
	out := make([]*Entry, 0, len(ids))
	for _, id := range ids {
		if e, ok := s.byID[id]; ok {
			out = append(out, e)
		}
	}
	sortEntries(out)
	return out
}

// Live returns the buffermap source set at round r, in canonical order:
// the entries a Serve may still carry — not expired at r, the only ones a
// requester can be forwarding — received up to and including round r
// itself. It fills dst's array, whatever dst held, growing it only when
// the set does not fit.
func (s *Store) Live(dst []*Entry, r model.Round) []*Entry {
	// An update lives at most maxLife rounds past its reception, so older
	// reception rounds hold nothing that is still live.
	out := dst[:0]
	for back := model.Round(0); back <= s.maxLife && back <= r; back++ {
		for _, id := range s.byRound[r-back] {
			if e, ok := s.byID[id]; ok && !e.Update.Expired(r) {
				out = append(out, e)
			}
		}
	}
	sortEntries(out)
	return out
}

// Undelivered returns stored entries not yet handed to the application
// whose deadline is at or before r (ready for playback), in ID order.
func (s *Store) Undelivered(r model.Round) []*Entry {
	// What the caller handed over since the last call leaves the index.
	s.pending = slices.DeleteFunc(s.pending, func(e *Entry) bool { return e.Delivered })
	var out []*Entry
	for _, e := range s.pending {
		if e.Update.Deadline <= r {
			out = append(out, e)
		}
	}
	sortEntries(out)
	return out
}

// RetentionRounds is how many rounds PAG and AcTinG nodes keep a received
// update (buffermap matching, ref resolution, duplicate-request
// suppression) before DropBefore retires it.
const RetentionRounds = 24

// DropBefore removes updates received strictly before round r, returning
// how many were dropped. Callers garbage-collect with a retention of a few
// playout windows.
func (s *Store) DropBefore(r model.Round) int {
	// What is about to be retired (everything received before r) leaves the
	// undelivered index first: a recycled entry must not be found there.
	s.pending = slices.DeleteFunc(s.pending, func(e *Entry) bool { return e.Received < r })

	dropped := 0
	for rr, ids := range s.byRound {
		if rr >= r {
			continue
		}
		for _, id := range ids {
			if e, ok := s.byID[id]; ok {
				// Retired entries are recycled; by the retention horizon
				// (several playout windows) nothing outside the store still
				// references them. They are zeroed here, not at reuse: a
				// parked entry would otherwise pin its payload, source
				// signature and embedding for as long as it stays parked.
				*e = Entry{}
				s.free = append(s.free, e)
				delete(s.byID, id)
				dropped++
			}
		}
		delete(s.byRound, rr)
	}
	return dropped
}

func sortEntries(es []*Entry) {
	slices.SortFunc(es, func(a, b *Entry) int { return a.Update.ID.Compare(b.Update.ID) })
}

// ---------------------------------------------------------------------------
// Buffermap
// ---------------------------------------------------------------------------

// BufferMap is the privacy-preserving ownership hint of §V-D: the tags
// (hhash.Hasher.Tags), keyed by the responder's fresh prime, of the
// updates it owns in the window — a set, held strictly ascending, which is
// also how it travels. The requester matches by tagging its own
// candidates under the same prime — neither side reveals identifiers in
// clear to the monitors.
type BufferMap []uint64

// NewBufferMap makes tags a BufferMap in place: sorted, duplicates dropped.
func NewBufferMap(tags []uint64) BufferMap {
	slices.Sort(tags)
	return slices.Compact(tags)
}

// Contains reports whether the tag is present.
func (b BufferMap) Contains(tag uint64) bool {
	_, ok := slices.BinarySearch(b, tag)
	return ok
}

// ---------------------------------------------------------------------------
// Source-side generation
// ---------------------------------------------------------------------------

// Signer abstracts the source identity (avoids importing pki here).
type Signer interface {
	Sign(msg []byte) ([]byte, error)
}

// Generator mints the session's updates at the source. Every update is
// of stream 0, the one stream a session carries.
type Generator struct {
	signer  Signer
	payload int
	ttl     model.Round
	nextSeq uint64
}

// NewGenerator creates a source-side generator: payloadBytes per update
// (938 in the paper) and ttl rounds of life (the 10 s playout delay).
func NewGenerator(signer Signer, payloadBytes int, ttl model.Round) (*Generator, error) {
	if signer == nil {
		return nil, errors.New("update: generator needs a signer")
	}
	if payloadBytes <= 0 {
		return nil, fmt.Errorf("update: invalid payload size %d", payloadBytes)
	}
	if ttl == 0 {
		return nil, errors.New("update: ttl must be at least one round")
	}
	return &Generator{
		signer:  signer,
		payload: payloadBytes,
		ttl:     ttl,
	}, nil
}

// Emit mints n updates released at round r. Payloads are deterministic
// pseudo-content (seq-dependent), which keeps simulations reproducible
// while exercising the full signing/hashing path.
func (g *Generator) Emit(r model.Round, n int) ([]Update, error) {
	out := make([]Update, 0, n)
	for i := 0; i < n; i++ {
		u := Update{
			ID:       model.UpdateID{Seq: g.nextSeq},
			Deadline: r + g.ttl,
			Payload:  syntheticPayload(g.nextSeq, g.payload),
		}
		sig, err := g.signer.Sign(u.CanonicalBytes())
		if err != nil {
			return nil, fmt.Errorf("update: signing update %v: %w", u.ID, err)
		}
		u.SrcSig = sig
		out = append(out, u)
		g.nextSeq++
	}
	return out, nil
}

// syntheticPayload fills a buffer with a cheap deterministic byte pattern,
// seeded as stream<<32 ^ seq ^ constant with the stream, 0, dropping out.
func syntheticPayload(seq uint64, n int) []byte {
	buf := make([]byte, n)
	state := seq ^ 0x9E3779B97F4A7C15
	for i := range buf {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		buf[i] = byte(state)
	}
	return buf
}
