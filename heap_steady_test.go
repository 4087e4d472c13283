package pag

import (
	"runtime"
	"testing"
)

// TestSessionHeapIsFlat: past the store-retention horizon a session's live
// heap is a steady state — every round retires as much as it stores. The
// benchmark's live_heap_mb is read after however many rounds fit its
// window, so a per-round residue (retired store entries and recycled
// shells that kept their payload, signature and embedding; residues with
// update-sized backing arrays; lift tables never released) reads as a
// regression of whichever change makes rounds faster. With those four in
// place rounds 40 -> 80 read +1.6 % here, and +8 % without them.
func TestSessionHeapIsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("80 rounds at 256 bits")
	}
	s, err := NewSession(SessionConfig{
		Nodes: 12, StreamKbps: 300, UpdateBytes: 938, ModulusBits: 256, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	liveMB := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / 1e6
	}
	s.Run(40)
	at40 := liveMB()
	s.Run(40)
	at80 := liveMB()
	t.Logf("live heap: %.2f MB at round 40, %.2f MB at round 80", at40, at80)
	if at80 > at40*1.05 {
		t.Errorf("live heap grew from %.2f MB at round 40 to %.2f MB at round 80 (> 5 %%)", at40, at80)
	}
}
