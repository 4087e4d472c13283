package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Tracer emits a structured JSONL journal of round events: one JSON
// object per line, fields in call-site order, a monotonic sequence
// number first. It sits outside the determinism boundary — events from
// worker goroutines interleave in wall-clock order — and outside the
// report digest; it is a debugging and analysis artifact, not a result.
//
// A nil *Tracer is the disabled state: Emit on nil is a one-branch
// no-op, so instrumentation points need no configuration plumbing beyond
// the pointer itself. Hot paths that would allocate a field slice should
// still gate on Enabled().
//
// Events are buffered in per-shard byte buffers rather than written
// through one mutex: Emit encodes its line outside any lock (the JSON
// marshal is the expensive part, and it used to serialize every worker
// goroutine), then appends it to the first shard whose lock it can take.
// Probing always starts at shard 0, so a single-threaded run keeps its
// journal in emission order; under parallel phases events spill across
// shards and the file interleaves, which is why trace.Parse re-sorts by
// seq. Buffers drain to the writer when a shard passes its size
// threshold and at every Flush — shards always in index order, a fixed
// single-threaded point (the round engine flushes at round end), so the flush
// schedule is deterministic even though mid-round interleaving is not.
type Tracer struct {
	wmu    sync.Mutex // serializes writer access and the latched error
	w      io.Writer
	err    error
	failed atomic.Bool // mirror of err != nil, the lock-free Emit gate
	seq    atomic.Uint64
	clock  atomic.Pointer[func() int64]
	shards [traceShards]traceShard
}

// traceShard is one Emit buffer. Shards only reduce lock contention;
// they carry no identity (an event's shard is whichever was free).
type traceShard struct {
	mu  sync.Mutex
	buf []byte
	// pad keeps neighbouring shards off one cache line; adjacent-shard
	// TryLock probing otherwise false-shares under parallel phases.
	_ [64]byte
}

const (
	// traceShards bounds Emit's lock-probe walk. More shards than
	// plausible worker counts, small enough that Flush stays cheap.
	traceShards = 16
	// traceFlushBytes is the per-shard drain threshold: large enough to
	// amortize writer syscalls, small enough to bound buffered memory
	// (16 shards × 64 KiB ≈ 1 MiB worst case).
	traceFlushBytes = 64 << 10
)

// Span-structured events: an instrumented operation with an extent (the
// 5-message exchange) emits an opening event carrying Span(SpanOpen) and
// a closing event carrying Span(SpanClose) plus Outcome(...); every
// event belonging to the operation — including the open/close pair and
// any point event in between — carries the same XID(...) correlation id
// (see model.ExchangeID). Analyzers group by xid, not by seq, so spans
// survive interleaving from worker goroutines and merging journals from
// several processes.
const (
	// SpanOpen marks the event that opens a span.
	SpanOpen = "open"
	// SpanClose marks the event that closes a span; it carries the
	// span's terminal outcome.
	SpanClose = "close"
)

// XID is the correlation-id field tying an event to its span.
func XID(id string) Field { return Field{Key: "xid", Value: id} }

// Span is the span-state field (SpanOpen or SpanClose).
func Span(state string) Field { return Field{Key: "span", Value: state} }

// Outcome is the terminal-outcome field of a closing event.
func Outcome(o string) Field { return Field{Key: "outcome", Value: o} }

// Field is one key/value of a trace event. The envelope owns the keys
// "seq", "ts_ns" and "event" — a field reusing one would write a
// duplicate JSON key that shadows the envelope in decoded journals.
type Field struct {
	Key   string
	Value any
}

// F is shorthand for constructing a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// NewTracer creates a tracer writing JSONL to w.
func NewTracer(w io.Writer) *Tracer { return &Tracer{w: w} }

// Enabled reports whether the tracer records anything — the hot-path
// gate for call sites that build field slices.
func (t *Tracer) Enabled() bool { return t != nil }

// SetClock attaches a wall-clock source (typically func() int64 {
// return time.Now().UnixNano() }); every subsequent event carries a
// "ts_ns" field right after "seq". Deterministic tests leave the clock
// unset so journals stay byte-comparable; the CLIs set it so pag-trace
// can report real latencies. Canonical-comparison helpers strip both
// seq and ts_ns.
func (t *Tracer) SetClock(clock func() int64) {
	if t == nil {
		return
	}
	if clock == nil {
		t.clock.Store(nil)
		return
	}
	t.clock.Store(&clock)
}

// Emit buffers one event line: {"seq":N,"event":"...",fields...}.
// Encoding happens outside any lock; the finished line lands in the
// first free shard buffer. A write error latches and silences the tracer
// (tracing must never take a run down).
func (t *Tracer) Emit(event string, fields ...Field) {
	if t == nil || t.failed.Load() {
		return
	}
	seq := t.seq.Add(1)
	var b strings.Builder
	b.WriteString(`{"seq":`)
	b.WriteString(strconv.FormatUint(seq, 10))
	if clock := t.clock.Load(); clock != nil {
		b.WriteString(`,"ts_ns":`)
		b.WriteString(strconv.FormatInt((*clock)(), 10))
	}
	b.WriteString(`,"event":`)
	b.WriteString(quoteJSON(event))
	for _, f := range fields {
		b.WriteByte(',')
		b.WriteString(quoteJSON(f.Key))
		b.WriteByte(':')
		v, err := json.Marshal(f.Value)
		if err != nil {
			v = []byte(quoteJSON(fmt.Sprint(f.Value)))
		}
		b.Write(v)
	}
	b.WriteString("}\n")
	t.append(b.String())
}

// append stores one encoded line in the first shard whose lock a single
// TryLock probe wins, falling back to a blocking wait on shard 0 if the
// whole ring is busy (bounded work either way — the critical section is
// a memcpy). Draining a full shard happens inside its lock, so a shard's
// lines reach the writer in emission order.
func (t *Tracer) append(line string) {
	for i := 0; i < traceShards; i++ {
		sh := &t.shards[i]
		if sh.mu.TryLock() {
			t.appendLocked(sh, line)
			return
		}
	}
	sh := &t.shards[0]
	sh.mu.Lock()
	t.appendLocked(sh, line)
}

// appendLocked appends under sh.mu (which it releases) and drains the
// shard if it passed the flush threshold.
func (t *Tracer) appendLocked(sh *traceShard, line string) {
	sh.buf = append(sh.buf, line...)
	if len(sh.buf) < traceFlushBytes {
		sh.mu.Unlock()
		return
	}
	buf := sh.buf
	sh.buf = sh.buf[:0]
	t.wmu.Lock()
	if t.err == nil {
		if _, err := t.w.Write(buf); err != nil {
			t.err = err
			t.failed.Store(true)
		}
	}
	t.wmu.Unlock()
	sh.mu.Unlock()
}

// Flush drains every shard buffer to the writer, in shard index order.
// Call it from a single-threaded point (the round engine flushes at round end;
// runs flush once more after the final event) — flushing concurrently
// with Emit is safe but forfeits the deterministic drain order.
func (t *Tracer) Flush() {
	if t == nil {
		return
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		if len(sh.buf) > 0 {
			buf := sh.buf
			sh.buf = sh.buf[:0]
			t.wmu.Lock()
			if t.err == nil {
				if _, err := t.w.Write(buf); err != nil {
					t.err = err
					t.failed.Store(true)
				}
			}
			t.wmu.Unlock()
		}
		sh.mu.Unlock()
	}
}

// Err flushes pending buffers and returns the latched write error, if
// any — asking for the terminal error implies wanting the writes tried.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.Flush()
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.err
}

// quoteJSON renders a string as a JSON string literal.
func quoteJSON(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return `"?"`
	}
	return string(b)
}
