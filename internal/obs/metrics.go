package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// This file holds the three instrument types. All operations are atomic
// and nil-safe: a nil instrument (disabled observability) costs exactly
// the nil check.

// Counter is a monotonic uint64 counter (ClassDet: a sum of commutative
// atomic adds is independent of worker interleaving).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an int64 level. Deterministic only if Set from
// single-threaded round-top contexts — the registry's gauge contract.
type Gauge struct {
	v atomic.Int64
}

// Set stores the level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the level by d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// timeBuckets are every histogram's ascending upper bounds (seconds; +Inf
// implicit): a decade ladder from a microsecond to ten seconds, wide
// enough for a 128-bit test modexp and a 512-bit paper-faithful one.
var timeBuckets = [...]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}

// Histogram is a fixed-bucket histogram over timeBuckets: counts per upper
// bound plus an implicit +Inf bucket, a total count and a sum. Which of
// those survive into the deterministic snapshot depends on its Class (see
// the package comment).
type Histogram struct {
	class   Class
	buckets [len(timeBuckets) + 1]atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for ; i < len(timeBuckets); i++ {
		if v <= timeBuckets[i] {
			break
		}
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// SpanStart opens a timing span: it returns the wall clock now, or the
// zero time when the histogram is nil — so a disabled span never reads
// the clock.
func (h *Histogram) SpanStart() time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// SpanEnd closes a timing span opened with SpanStart, recording the
// elapsed seconds. No-op on a nil histogram or a zero start.
func (h *Histogram) SpanEnd(start time.Time) {
	if h == nil || start.IsZero() {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the observation count (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the observation sum (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// snapshotBuckets copies the cumulative-free per-bucket counts.
func (h *Histogram) snapshotBuckets() []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}
