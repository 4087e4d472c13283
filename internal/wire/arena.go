package wire

// Ref-counted receive arenas. The transport read loops slice inbound
// frame payloads straight out of a shared fill buffer instead of
// allocating per frame (the zero-copy receive path). A payload queued for
// a later delivery wave holds a reference on its arena (Retain) and gives
// it back once its handler has returned (Release): handlers keep no view
// of what they were delivered (the transport.Handler contract, proved by
// the *SurvivesPayloadOverwrite tests), so an arena whose last payload
// has been handled goes back to its pool instead of to the garbage
// collector. Arenas whose frames were all dropped before delivery
// (fault-plane rechecks, departed destinations, protocol violations)
// never leave the read loop's hands and recycle the same way.
//
// Arenas come in size classes, ArenaSize << k up to maxPooledArena, one
// pool per class: a read loop asking for the default size never gets a
// buffer that was sized for some earlier large frame.

import (
	"sync"
	"sync/atomic"
)

// ArenaSize is the default capacity of a pooled receive arena and the
// smallest size class: large enough that one socket read drains many
// queued frames (the batch-receive path — one syscall, many frames), small
// enough that every idle read loop holding one, and an arena waiting on
// one undelivered payload, anchor little memory.
const ArenaSize = 32 << 10

// maxPooledArena is the largest size class; an arena for a single frame
// larger than that is built to measure and left to the GC.
const maxPooledArena = 256 << 10

// arenaClasses counts the size classes ArenaSize << k up to
// maxPooledArena: 32, 64, 128 and 256 KB.
const arenaClasses = 4

var arenaPools [arenaClasses]sync.Pool

// arenaClass returns the smallest size class that holds n bytes, or -1
// when n is larger than every class.
func arenaClass(n int) int {
	for k := 0; k < arenaClasses; k++ {
		if n <= ArenaSize<<k {
			return k
		}
	}
	return -1
}

// Arena is a ref-counted pooled byte buffer for zero-copy receive paths.
// The read loop that obtained it from GetArena owns one reference and is
// the only one to write the buffer or to Retain; every payload slice
// handed on owns one more. Whoever drops the last reference recycles the
// buffer.
type Arena struct {
	buf   []byte
	refs  atomic.Int32
	class int // index into arenaPools; -1 for an unpooled one-off
}

// GetArena returns an arena of the smallest size class that holds n
// bytes (at least ArenaSize), or one of exactly n bytes past the largest
// class, holding one reference for the caller.
func GetArena(n int) *Arena {
	k := arenaClass(n)
	var a *Arena
	if k < 0 {
		a = &Arena{buf: make([]byte, n), class: -1}
	} else if a, _ = arenaPools[k].Get().(*Arena); a == nil {
		a = &Arena{buf: make([]byte, ArenaSize<<k), class: k}
	}
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

// Release drops one reference. At zero the arena returns to its class's
// pool for the next read loop (poisoned first under PoisonReleased).
func (a *Arena) Release() {
	if a.refs.Add(-1) != 0 {
		return
	}
	if poisonReleased.Load() {
		poison(a.buf)
	}
	if a.class >= 0 {
		arenaPools[a.class].Put(a)
	}
}
