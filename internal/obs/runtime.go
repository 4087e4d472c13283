package obs

import (
	"runtime/metrics"
	"slices"
	"sort"
)

// WithRuntime returns s with the Go runtime's heap and GC readings merged
// in, in name order — what the live endpoint serves on /metrics and
// /metrics.json. pag_runtime_heap_alloc_bytes is the quantity the
// benchmark's live_heap_mb reads (HeapAlloc), pag_runtime_heap_inuse_bytes
// the one behind runtime.peak_heap_mb (HeapInuse). They are read at scrape
// time without stopping the world and belong to the process, not to the
// seeded run: ClassSched, never in DeterministicText.
func (s Snapshot) WithRuntime() Snapshot {
	samples := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(samples)
	cycles, objects, unused := samples[0].Value.Uint64(), samples[1].Value.Uint64(), samples[2].Value.Uint64()
	sched := ClassSched.String()
	out := Snapshot{Points: append(slices.Clone(s.Points),
		Point{Name: "pag_runtime_gc_cycles_total", Kind: "counter", Class: sched, Value: float64(cycles)},
		Point{Name: "pag_runtime_heap_alloc_bytes", Kind: "gauge", Class: sched, Value: float64(objects)},
		// HeapInuse: object bytes plus the free space inside in-use spans.
		Point{Name: "pag_runtime_heap_inuse_bytes", Kind: "gauge", Class: sched, Value: float64(objects + unused)},
	)}
	sort.SliceStable(out.Points, func(i, j int) bool { return out.Points[i].Name < out.Points[j].Name })
	return out
}
