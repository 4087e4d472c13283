package wire

// Ref-counted receive arenas. The transport read loops slice inbound
// frame payloads straight out of a shared fill buffer instead of
// allocating per frame (the zero-copy receive path). A payload queued for
// a later delivery wave holds a reference on its arena (Retain) and gives
// it back once its handler has returned (Release): handlers keep no view
// of what they were delivered (the transport.Handler contract, proved by
// the *SurvivesPayloadOverwrite tests), so an arena whose last payload
// has been handled goes back to the pool instead of to the garbage
// collector. Arenas whose frames were all dropped before delivery
// (fault-plane rechecks, departed destinations, protocol violations)
// never leave the read loop's hands and recycle the same way.

import (
	"sync"
	"sync/atomic"
)

// ArenaSize is the default capacity of a pooled receive arena: large
// enough that one socket read drains many queued frames (the batch-
// receive path — one syscall, many frames), small enough that an arena
// waiting on one undelivered payload does not anchor much dead memory.
const ArenaSize = 64 << 10

// maxPooledArena caps what the pool keeps; oversized one-off arenas
// (a single frame larger than ArenaSize) are always left to the GC.
const maxPooledArena = 256 << 10

var arenaPool = sync.Pool{
	New: func() any { return &Arena{buf: make([]byte, ArenaSize)} },
}

// Arena is a ref-counted pooled byte buffer for zero-copy receive paths.
// The read loop that obtained it from GetArena owns one reference and is
// the only one to write the buffer or to Retain; every payload slice
// handed on owns one more. Whoever drops the last reference recycles the
// buffer.
type Arena struct {
	buf  []byte
	refs atomic.Int32
}

// GetArena returns an arena with capacity at least n (at least ArenaSize)
// holding one reference for the caller.
func GetArena(n int) *Arena {
	a := arenaPool.Get().(*Arena)
	if cap(a.buf) < n {
		// Too small for this frame: put the pooled one back untouched and
		// build a dedicated arena (never pooled — see Release).
		arenaPool.Put(a)
		a = &Arena{buf: make([]byte, n)}
	}
	a.buf = a.buf[:cap(a.buf)]
	a.refs.Store(1)
	return a
}

// Bytes returns the arena's full backing slice.
func (a *Arena) Bytes() []byte { return a.buf }

// Retain adds a reference on behalf of a payload slice handed to a
// consumer, who calls Release when it is done with the bytes.
func (a *Arena) Retain() { a.refs.Add(1) }

// Shared reports whether any reference but the caller's is outstanding.
// Only the read loop retains, so once it sees false no payload of the
// arena is live and it may overwrite the buffer.
func (a *Arena) Shared() bool { return a.refs.Load() > 1 }

// Release drops one reference. At zero the arena returns to the pool for
// the next read loop.
func (a *Arena) Release() {
	if a.refs.Add(-1) == 0 && cap(a.buf) <= maxPooledArena {
		arenaPool.Put(a)
	}
}

// LossTolerant reports whether frames of the given wire kind may ride a
// fire-and-forget transport. Per §V the live stream itself tolerates
// loss: the monitoring-plane traffic (ack copies, attestation forwards,
// hash shares, ack forwards, self-check digests — kinds 6..10) is sent
// every round and is self-healing across rounds. Everything else — the
// 5-message exchange that carries actual stream content and keys, the
// judicial/accusation chain whose absence forges evidence of silence,
// and any kind this package does not know (other protocol planes) —
// must be retransmitted until acknowledged.
func LossTolerant(kind uint8) bool {
	return kind >= KindAckCopy && kind <= KindNodeDigest
}
