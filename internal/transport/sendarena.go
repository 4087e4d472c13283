package transport

import (
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// MemNet's send arena. MemNet's Send keeps the payload it is given, so a
// buffer the sender will reuse — a pooled wire.Writer, lent through
// SendLent — has to be copied first. The copy goes into a dense,
// reference-counted arena the net owns instead of into one heap clone per
// send: payloads are bump-allocated into fixed chunks, every destination
// message holds one reference to its payload's chunk, and a chunk whose
// last reference has gone returns to the net's free list, poisoned first
// under wire.PoisonReleased.
//
// References are taken by Lend (one per chunk lent from since the last
// merge, which keeps a view alive until its sends have queued it) and by
// Send (one per message), and dropped at MemNet's single-threaded merge
// point or after it: the lend references at the merge, a message's when
// the fault plane drops or parks it there or its destination has
// departed, and a delivered message's once its wave has been handled.
// The current chunk holds one more reference of its own until the bump
// allocator moves past it, so no chunk is recycled while a lend can still
// bump into it; once it holds no other, the merge rewinds it instead.
//
// The free list holds only chunks that were once in flight at the same
// time — a chunk is made only when the list is empty — so the idle bytes
// the net keeps are bounded by its own peak in-flight bytes, and no chunk
// goes to wire's process-wide receive-arena pool.

// sendChunkSize is the capacity of a send-arena chunk. A payload larger
// than that gets a chunk of its own, which the GC reclaims.
const sendChunkSize = 64 << 10

// sendChunk is one arena chunk and its reference count.
type sendChunk struct {
	refs atomic.Int32
	// lent reports whether the chunk holds a lend reference, which the
	// next merge drops; guarded by sendArena.mu.
	lent bool
	buf  []byte
}

// sendArena is a MemNet's send arena; every field is guarded by mu.
type sendArena struct {
	mu   sync.Mutex
	cur  *sendChunk // the chunk being bump-allocated; nil before the first lend
	off  int        // the first free byte of cur
	free []*sendChunk
	lent []*sendChunk // the chunks holding a lend reference
	made int          // chunks of sendChunkSize ever made
}

// lend copies p into the arena and returns the copy, a view that does not
// extend past p's length, with the chunk that holds it. The chunk keeps a
// lend reference until the next endLends, which keeps it alive for every
// Send that queues the view to take a reference of its own before then.
func (a *sendArena) lend(p []byte) ([]byte, *sendChunk) {
	a.mu.Lock()
	var c *sendChunk
	var v []byte
	if len(p) > sendChunkSize {
		c = &sendChunk{buf: make([]byte, len(p))}
		v = c.buf
	} else {
		if a.cur == nil || a.off+len(p) > sendChunkSize {
			a.advance()
		}
		c = a.cur
		end := a.off + len(p)
		v = c.buf[a.off:end:end]
		a.off = end
	}
	if !c.lent {
		c.lent = true
		c.refs.Add(1)
		a.lent = append(a.lent, c)
	}
	a.mu.Unlock()
	// The lend reference keeps the chunk from being recycled, so the copy
	// needs no lock: no other lend is handed these bytes.
	copy(v, p)
	return v, c
}

// advance moves the bump allocator to a fresh chunk — a recycled one when
// the free list has one — dropping the current chunk's own reference. It
// runs with a.mu held.
func (a *sendArena) advance() {
	if a.cur != nil && a.cur.refs.Add(-1) == 0 {
		a.recycle(a.cur)
	}
	var c *sendChunk
	if n := len(a.free); n > 0 {
		c = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
	} else {
		c = &sendChunk{buf: make([]byte, sendChunkSize)}
		a.made++
	}
	c.refs.Store(1)
	a.cur, a.off = c, 0
}

// release drops one reference to c (nil is no chunk: an owned payload).
func (a *sendArena) release(c *sendChunk) {
	if c == nil || c.refs.Add(-1) != 0 {
		return
	}
	a.mu.Lock()
	a.recycle(c)
	a.mu.Unlock()
}

// endLends drops every lend reference; the merge point calls it once the
// outboxes are drained, when every lent view that was sent is held by
// its messages. A current chunk that holds no view any more is rewound,
// so the next lends reuse its bytes from the start.
func (a *sendArena) endLends() {
	a.mu.Lock()
	for _, c := range a.lent {
		c.lent = false
		if c.refs.Add(-1) == 0 {
			a.recycle(c)
		}
	}
	clear(a.lent)
	a.lent = a.lent[:0]
	if a.cur != nil && a.cur.refs.Load() == 1 {
		wire.PoisonOnRelease(a.cur.buf[:a.off])
		a.off = 0
	}
	a.mu.Unlock()
}

// recycle takes back a chunk whose last reference has gone, with a.mu
// held: poisoned under wire.PoisonReleased, then onto the free list, or
// left to the GC when it was a large payload's own.
func (a *sendArena) recycle(c *sendChunk) {
	wire.PoisonOnRelease(c.buf)
	if len(c.buf) == sendChunkSize {
		a.free = append(a.free, c)
	}
}
