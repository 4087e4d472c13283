package update

import (
	"bytes"
	"sync"
	"sync/atomic"

	"repro/internal/hhash"
	"repro/internal/model"
)

// Interner is the session-wide flyweight table for update content. In a
// simulated session every node stores its own copy of every update it
// receives, so the dominant memory term is N × (payload + source signature)
// per live update — at the paper's 938-byte payloads and 256-byte RSA-sized
// signatures that is what keeps 10⁵ nodes from fitting one box. All those
// copies are byte-identical by construction (the source signs the canonical
// bytes and every receiver verifies the signature before storing), so the
// content can be shared: the first node to store an update publishes its
// payload, signature and (lazily) its homomorphic-hash embedding; every
// other node's store entry aliases the published slices.
//
// Safety under Byzantine senders: Canonical only returns the shared content
// when payload, signature AND deadline are byte-equal to the published
// ones. A sender distributing divergent content under one UpdateID (which
// would require forging the source signature, but the guard holds
// regardless) leaves each receiver with its private copy — interning is
// a pure memory optimisation, never a trust widening.
//
// Determinism: all successfully interned values for an id are byte-equal,
// and embeddings are pure functions of the canonical bytes, so which node
// wins the first-publish race on a sharded engine is unobservable —
// report JSON, digests and obs snapshots are byte-identical with the
// interner attached, detached and at any worker count (determinism_test.go
// holds the matrix).
type Interner struct {
	mu sync.RWMutex
	m  map[model.UpdateID]*interned
}

// interned is one published update's shared content.
type interned struct {
	deadline model.Round
	payload  []byte
	srcSig   []byte
	// embed caches the homomorphic-hash embedding (u^1 mod M) of the
	// canonical bytes, published on first computation. All racing writers
	// compute the same value, so CompareAndSwap keeps one of N equal
	// residues instead of N — and with it one comb table per update for
	// the whole session instead of one per node.
	embed atomic.Pointer[hhash.FixedBase]
}

// NewInterner creates an empty interner.
func NewInterner() *Interner {
	return &Interner{m: make(map[model.UpdateID]*interned)}
}

// Canonical returns the representation of u a store may keep: an Update
// whose Payload and SrcSig alias the session-wide shared copy. The first
// caller for an id publishes (cloning the slices); later callers with
// byte-equal content get the shared slices. Callers with divergent
// content, and every caller of a nil Interner, get a private clone — u
// typically aliases the message it was decoded from, and the result
// never does.
func (in *Interner) Canonical(u Update) Update {
	if in == nil {
		return u.Clone()
	}
	in.mu.RLock()
	e := in.m[u.ID]
	in.mu.RUnlock()
	if e == nil {
		in.mu.Lock()
		if e = in.m[u.ID]; e == nil {
			e = &interned{
				deadline: u.Deadline,
				payload:  bytes.Clone(u.Payload),
				srcSig:   bytes.Clone(u.SrcSig),
			}
			in.m[u.ID] = e
		}
		in.mu.Unlock()
	}
	if e.deadline != u.Deadline ||
		!bytes.Equal(e.payload, u.Payload) || !bytes.Equal(e.srcSig, u.SrcSig) {
		return u.Clone() // divergent content: keep a private copy
	}
	u.Payload = e.payload
	u.SrcSig = e.srcSig
	return u
}

// SharedEmbed returns the session-shared embedding of u when u carries the
// interned content, computing and publishing it on first use, and reports
// it as shared: the interner then owns the lift table that grows on it
// (DropExpired releases it). For private (non-interned or divergent)
// copies it just runs compute and the caller owns the result. compute must
// be a pure function of u's canonical bytes.
func (in *Interner) SharedEmbed(u Update, compute func() *hhash.FixedBase) (b *hhash.FixedBase, shared bool) {
	if in == nil {
		return compute(), false
	}
	in.mu.RLock()
	e := in.m[u.ID]
	in.mu.RUnlock()
	if e == nil || !sameSlice(e.payload, u.Payload) {
		return compute(), false
	}
	if v := e.embed.Load(); v != nil {
		return v, true
	}
	e.embed.CompareAndSwap(nil, compute())
	return e.embed.Load(), true
}

// sameSlice reports whether two byte slices are the same allocation (not
// merely equal) — the cheap identity check that proves u went through
// Canonical.
func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// DropExpired garbage-collects entries whose deadline is before the given
// round, releasing the lift tables of their shared embeddings, and returns
// how many were dropped. Sessions call it from a round-top hook with the
// round itself: an update past its deadline is in no forward set and in no
// buffermap, so from then on no exchange lifts it under a prime again (a
// straggler's lift still gets the same value, from the generic ladder). The
// content itself lives on in the store entries that alias it until each
// node's own retention GC.
func (in *Interner) DropExpired(before model.Round) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	dropped := 0
	for id, e := range in.m {
		if e.deadline < before {
			if b := e.embed.Load(); b != nil {
				b.Release()
			}
			delete(in.m, id)
			dropped++
		}
	}
	return dropped
}

// Len returns the number of live interned updates.
func (in *Interner) Len() int {
	if in == nil {
		return 0
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.m)
}
