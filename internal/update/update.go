// Package update models the disseminated data chunks ("updates") of a
// gossip session and the per-node update store: reception multiplicities
// (§V-D "Multiple receptions"), buffermap windows (§V-D "Buffermap
// transmissions") and expiration (§V-D "Expiration of updates").
package update

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/hhash"
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
	// Forwardable records whether the update arrived on the forwardable
	// list (it must be re-forwarded) or the expiring list.
	Forwardable bool
	// Delivered marks handoff to the application (media player).
	Delivered bool
	// Embed caches the protocol layer's homomorphic-hash embedding of the
	// update bytes (u^1 mod M): every buffermap hash, serve attestation
	// and acknowledgement lifts this value, and it never changes once the
	// update is stored. It is a fixed base: the buffermap lifts it under
	// one fresh prime after another, so it also owns the comb table those
	// lifts run on (the interner's object when the content is interned,
	// this entry's own, attached with Store.SetOwnEmbed, otherwise). nil
	// until first computed; the residue is read-only.
	Embed *hhash.FixedBase
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
	// received (deadline − reception round): how far back OwnedInWindow must
	// look for entries that have not expired.
	maxLife model.Round
	// liftTables indexes, by update deadline, the embeddings this store
	// owns (SetOwnEmbed) and ReleaseLiftTables has not released yet. nil
	// while every embedding is the interner's.
	liftTables map[model.Round][]*hhash.FixedBase
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
// If the update is already stored only the multiplicity is accumulated
// (and Forwardable widened), matching the paper's accounting: the node
// still owes u^count to its monitors even for duplicates. It returns true
// when the update was new.
func (s *Store) Add(u Update, r model.Round, count uint64, forwardable bool) bool {
	if count == 0 {
		count = 1
	}
	if e, ok := s.byID[u.ID]; ok {
		e.Count += count
		if forwardable {
			e.Forwardable = true
		}
		return false
	}
	e := s.alloc()
	e.Update = u
	e.Received = r
	e.Count = count
	e.Forwardable = forwardable
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

// OwnedInWindow returns the buffermap source set at round r, in canonical
// order: the entries a Serve may still carry — not expired at r, the only
// ones a requester can be forwarding — received up to and including round
// r itself. A positive window caps the reception age at rounds (r-window,
// r], the paper's "updates of the last 4 rounds" (§V-D); zero or less means
// no cap.
func (s *Store) OwnedInWindow(r model.Round, window int) []*Entry {
	// An update lives at most maxLife rounds past its reception, so older
	// reception rounds hold nothing that is still live.
	span := s.maxLife + 1
	if window > 0 && model.Round(window) < span {
		span = model.Round(window)
	}
	var out []*Entry
	for back := model.Round(0); back < span && back <= r; back++ {
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

// SetOwnEmbed caches an embedding that belongs to this store alone (no
// interner, or content the interner does not hold) and takes charge of the
// lift table it will grow; the interner's shared embeddings are assigned to
// Entry.Embed directly and released by Interner.DropExpired.
func (s *Store) SetOwnEmbed(e *Entry, b *hhash.FixedBase) {
	e.Embed = b
	if s.liftTables == nil {
		s.liftTables = make(map[model.Round][]*hhash.FixedBase)
	}
	d := e.Update.Deadline
	s.liftTables[d] = append(s.liftTables[d], b)
}

// ReleaseLiftTables releases the lift tables of the store's own embeddings
// whose update's deadline is strictly before the given round — the rule of
// Interner.DropExpired, which nodes apply at the round top to what the
// interner does not cover. The embedding itself stays with the entry.
func (s *Store) ReleaseLiftTables(before model.Round) {
	for d, bases := range s.liftTables {
		if d >= before {
			continue
		}
		for _, b := range bases {
			b.Release()
		}
		delete(s.liftTables, d)
	}
}

func sortEntries(es []*Entry) {
	sort.Slice(es, func(i, j int) bool {
		return es[i].Update.ID.Less(es[j].Update.ID)
	})
}

// ---------------------------------------------------------------------------
// Buffermap
// ---------------------------------------------------------------------------

// BufferMap is the privacy-preserving ownership hint of §V-D: the tags
// (hhash.Params.Tag) of the homomorphic hashes, under the responder's fresh
// prime, of the updates it owns in the window — a set, held strictly
// ascending, which is also how it travels. The requester matches by tagging
// its own candidates under the same prime — neither side reveals
// identifiers in clear to the monitors.
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
// Forwarding split (§V-D, expiration)
// ---------------------------------------------------------------------------

// ForwardSplit partitions the entries a node must forward at round r into
// the expiring list (acknowledged but not re-forwarded by the receiver)
// and the forwardable list.
func ForwardSplit(entries []*Entry, r model.Round) (expiring, forwardable []*Entry) {
	for _, e := range entries {
		if e.Update.Expired(r) {
			continue // already past deadline: not even served
		}
		if e.Update.ExpiresNextRound(r) {
			expiring = append(expiring, e)
		} else {
			forwardable = append(forwardable, e)
		}
	}
	return expiring, forwardable
}

// ---------------------------------------------------------------------------
// Source-side generation
// ---------------------------------------------------------------------------

// Signer abstracts the source identity (avoids importing pki here).
type Signer interface {
	Sign(msg []byte) ([]byte, error)
}

// Generator mints the updates of one stream at the source.
type Generator struct {
	stream  model.StreamID
	signer  Signer
	payload int
	ttl     model.Round
	nextSeq uint64
}

// NewGenerator creates a source-side generator: payloadBytes per update
// (938 in the paper) and ttl rounds of life (the 10 s playout delay).
func NewGenerator(stream model.StreamID, signer Signer, payloadBytes int, ttl model.Round) (*Generator, error) {
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
		stream:  stream,
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
			ID:       model.UpdateID{Stream: g.stream, Seq: g.nextSeq},
			Deadline: r + g.ttl,
			Payload:  syntheticPayload(g.stream, g.nextSeq, g.payload),
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

// NextSeq returns the sequence number the next emitted update will carry.
func (g *Generator) NextSeq() uint64 { return g.nextSeq }

// syntheticPayload fills a buffer with a cheap deterministic byte pattern.
func syntheticPayload(stream model.StreamID, seq uint64, n int) []byte {
	buf := make([]byte, n)
	state := uint64(stream)<<32 ^ seq ^ 0x9E3779B97F4A7C15
	for i := range buf {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		buf[i] = byte(state)
	}
	return buf
}
