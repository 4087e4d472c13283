package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: every instrument and the registry itself no-op on nil —
// the disabled-observability configuration costs one branch, never a
// panic.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("x")
	h := r.Histogram("x_seconds", ClassTimed, nil)
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(1)
	h.SpanEnd(h.SpanStart())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments reported values")
	}
	if !h.SpanStart().IsZero() {
		t.Fatal("nil histogram span read the clock")
	}
	if got := r.Snapshot(); len(got.Points) != 0 {
		t.Fatalf("nil registry snapshot has %d points", len(got.Points))
	}
	var tr *Tracer
	tr.Emit("event", F("k", 1)) // must not panic
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
}

// TestCounterGaugeHistogram exercises the value paths.
func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("msgs_total", L("kind", "Serve"))
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	if again := r.Counter("msgs_total", L("kind", "Serve")); again != c {
		t.Fatal("same name+labels did not return the same counter")
	}
	if other := r.Counter("msgs_total", L("kind", "Ack")); other == c {
		t.Fatal("different labels shared a counter")
	}

	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}

	h := r.Histogram("size_bytes", ClassDet, []float64{10, 100})
	for _, v := range []float64{1, 50, 5000} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Sum() != 5051 {
		t.Fatalf("histogram count=%d sum=%v", h.Count(), h.Sum())
	}
	got := h.snapshotBuckets()
	want := []uint64{1, 1, 1} // <=10, <=100, +Inf
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
}

// TestRegistryKindMismatchPanics: re-registering a name as a different
// kind is a programming error and must fail loudly.
func TestRegistryKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x")
	r.Gauge("x")
}

// TestSnapshotStableOrder: registration order must not leak into the
// snapshot — the property the cross-worker byte-identity rests on.
func TestSnapshotStableOrder(t *testing.T) {
	build := func(order []int) string {
		r := NewRegistry()
		ops := []func(){
			func() { r.Counter("b_total").Add(2) },
			func() { r.Counter("a_total", L("k", "v")).Inc() },
			func() { r.Gauge("c").Set(9) },
			func() { r.Counter("a_total", L("k", "u")).Inc() },
		}
		for _, i := range order {
			ops[i]()
		}
		return r.Snapshot().DeterministicText()
	}
	fwd := build([]int{0, 1, 2, 3})
	rev := build([]int{3, 2, 1, 0})
	if fwd != rev {
		t.Fatalf("snapshot depends on registration order:\n%s\nvs\n%s", fwd, rev)
	}
}

// TestDeterministicTextClasses: sched metrics vanish, timed histograms
// keep only their count, det histograms keep bucket counts but no sum.
func TestDeterministicTextClasses(t *testing.T) {
	r := NewRegistry()
	r.Counter("det_total").Inc()
	r.Histogram("lift_seconds", ClassTimed, nil).Observe(0.5)
	r.Histogram("stall_seconds", ClassSched, nil).Observe(0.1)
	r.Histogram("size_bytes", ClassDet, []float64{8}).Observe(4)
	text := r.Snapshot().DeterministicText()
	for _, want := range []string{
		"det_total 1\n",
		"lift_seconds_count 1\n",
		`size_bytes_bucket{le="8"} 1` + "\n",
		"size_bytes_count 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("deterministic text missing %q:\n%s", want, text)
		}
	}
	for _, reject := range []string{"stall_seconds", "lift_seconds_bucket", "sum"} {
		if strings.Contains(text, reject) {
			t.Errorf("deterministic text leaked %q:\n%s", reject, text)
		}
	}
}

// TestConcurrentCounters: commutative adds from many goroutines sum
// exactly — the no-fold-needed claim.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	h := r.Histogram("h_seconds", ClassTimed, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("counter=%d histogram count=%d, want 8000", c.Value(), h.Count())
	}
}

// TestPrometheusTextValidates: the exposition renders well-formed per
// our own validator (the CI smoke check), including label escaping.
func TestPrometheusTextValidates(t *testing.T) {
	r := NewRegistry()
	r.Counter("pag_msgs_total", L("kind", `with"quote`)).Inc()
	r.Gauge("pag_depth").Set(-3)
	r.Histogram("pag_lift_seconds", ClassTimed, nil).Observe(0.02)
	text := r.Snapshot().PrometheusText()
	if err := ValidateExposition([]byte(text)); err != nil {
		t.Fatalf("own exposition invalid: %v\n%s", err, text)
	}
	if !strings.Contains(text, "# TYPE pag_lift_seconds histogram") {
		t.Errorf("missing histogram TYPE line:\n%s", text)
	}
	if !strings.Contains(text, `le="+Inf"`) {
		t.Errorf("missing +Inf bucket:\n%s", text)
	}
}

// TestValidateExpositionRejects: the validator actually catches the
// malformed inputs the CI job exists to catch.
func TestValidateExpositionRejects(t *testing.T) {
	for _, bad := range []string{
		"no_type_line 1\n",
		"# TYPE x counter\nx{unclosed 1\n",
		"# TYPE x wrongkind\nx 1\n",
		"# TYPE x counter\nx not-a-number\n",
	} {
		if err := ValidateExposition([]byte(bad)); err == nil {
			t.Errorf("accepted malformed exposition %q", bad)
		}
	}
	good := "# TYPE x counter\nx 1\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 0.5\nh_count 2\n"
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Errorf("rejected well-formed exposition: %v", err)
	}
}

// TestTracerJSONL: one JSON object per line, sequence numbers monotonic,
// fields in call order, and a write error latches silently. Events are
// buffered in shards until Flush (or the size threshold) drains them.
func TestTracerJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Emit("round_begin", F("round", 1))
	tr.Emit("verdict", F("accused", 3), F("kind", "forwarding"))
	if buf.Len() != 0 {
		t.Errorf("events reached the writer before Flush: %q", buf.String())
	}
	tr.Flush()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v (%s)", i, err, line)
		}
		if ev["seq"] != float64(i+1) {
			t.Errorf("line %d seq = %v", i, ev["seq"])
		}
	}
	if !strings.Contains(lines[1], `"accused":3`) {
		t.Errorf("field lost: %s", lines[1])
	}

	failing := NewTracer(failWriter{})
	failing.Emit("x")
	if failing.Err() == nil {
		t.Fatal("write error did not latch")
	}
	failing.Emit("y") // must not panic after latching
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }

// TestTracerShardedFlush: events emitted from many goroutines all reach
// the journal exactly once with distinct seqs — the shard buffers lose
// nothing and double nothing under contention.
func TestTracerShardedFlush(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	const goroutines, events = 8, 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				tr.Emit("e", F("g", g), F("i", i))
			}
		}(g)
	}
	wg.Wait()
	tr.Flush()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != goroutines*events {
		t.Fatalf("%d lines, want %d", len(lines), goroutines*events)
	}
	seqs := make(map[float64]bool, len(lines))
	for _, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("not JSON: %v (%s)", err, line)
		}
		s, ok := ev["seq"].(float64)
		if !ok || seqs[s] {
			t.Fatalf("missing or duplicate seq in %s", line)
		}
		seqs[s] = true
	}
}

// BenchmarkTracerEmit is the trace-overhead microbenchmark: sequential
// and contended emission into a discarded sink. The per-shard buffers
// move JSON encoding outside any lock and batch writer syscalls, which
// is where the parallel engine's ~12% tracing tax went.
func BenchmarkTracerEmit(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		tr := NewTracer(io.Discard)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Emit("exchange", F("round", 3), F("from", 7), F("to", 9))
		}
		tr.Flush()
	})
	b.Run("parallel", func(b *testing.B) {
		tr := NewTracer(io.Discard)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				tr.Emit("exchange", F("round", 3), F("from", 7), F("to", 9))
			}
		})
		tr.Flush()
	})
}

// TestServeEndpoints: the live endpoint answers on all three metric
// paths and the pprof index, on an ephemeral port.
func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("pag_x_total").Inc()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		client := &http.Client{Timeout: 5 * time.Second}
		resp, err := client.Get("http://" + srv.Addr().String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}
	runtimeNames := []string{"pag_runtime_gc_cycles_total", "pag_runtime_heap_alloc_bytes", "pag_runtime_heap_inuse_bytes"}
	if body := get("/metrics"); !strings.Contains(body, "pag_x_total 1") {
		t.Errorf("/metrics missing counter:\n%s", body)
	} else if err := ValidateExposition([]byte(body)); err != nil {
		t.Errorf("/metrics exposition invalid: %v", err)
	} else {
		for _, name := range runtimeNames {
			if !strings.Contains(body, "\n"+name+" ") {
				t.Errorf("/metrics missing %s:\n%s", name, body)
			}
		}
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Errorf("/metrics.json not a snapshot: %v", err)
	} else if len(snap.Points) != 1+len(runtimeNames) {
		t.Errorf("/metrics.json has %d points, want 1 + %d runtime", len(snap.Points), len(runtimeNames))
	} else if alloc, inuse := snap.Total("pag_runtime_heap_alloc_bytes"), snap.Total("pag_runtime_heap_inuse_bytes"); alloc <= 0 || inuse < alloc {
		t.Errorf("runtime heap alloc %v, inuse %v", alloc, inuse)
	}
	if body := get("/metrics.det"); !strings.Contains(body, "pag_x_total 1") {
		t.Errorf("/metrics.det missing counter:\n%s", body)
	} else if strings.Contains(body, "pag_runtime_") {
		t.Errorf("/metrics.det carries process readings:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index unexpected:\n%s", body)
	}
}
