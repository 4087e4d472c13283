package pag

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestSessionHeapIsFlat: past the store-retention horizon a session's live
// heap is a steady state — every round retires as much as it stores. The
// benchmark's live_heap_mb is read after however many rounds fit its
// window, so a per-round residue reads as a regression of whichever change
// makes rounds faster.
//
// The PAG row is the one the core's retention rules were written against
// (retired store entries and recycled shells that kept their payload,
// signature and embedding; residues with update-sized backing arrays; lift
// tables never released): with those in place rounds 40 -> 80 read +1.6 %
// here, and +8 % without them. The AcTinG row runs over stepped sockets,
// where a connection writer that kept a high-water copy of its batches and
// read loops parked on arenas sized for some earlier large frame would
// grow with the traffic peaks a run has seen. It starts at round 80:
// before that AcTinG's 24-round update store is still growing its id map
// (rounds 40 -> 80 read +8 %, all of it in update.Store.Add), after it the
// store is flat.
//
// The heap is read after two collections, so what sync.Pool caches hold
// (victims included) does not count: the test is about growth, not pool
// residency.
func TestSessionHeapIsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("hundreds of rounds")
	}
	rows := []struct {
		name     string
		cfg      SessionConfig
		from, to int // rounds
	}{
		{"pag/mem", SessionConfig{
			Nodes: 12, StreamKbps: 300, UpdateBytes: 938, ModulusBits: 256, Seed: 3,
		}, 40, 80},
		{"acting/tcp", SessionConfig{
			Protocol: ProtocolAcTinG, Nodes: 96, StreamKbps: 60, ModulusBits: 128, Seed: 3,
			NewNetwork: func() transport.FaultyNetwork {
				tn := transport.NewTCPNet(nil)
				tn.SetDynamic("127.0.0.1")
				tn.SetStepped(5 * time.Second)
				return tn
			},
		}, 80, 160},
	}
	liveMB := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / 1e6
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			s, err := NewSession(r.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.Run(r.from)
			before := liveMB()
			s.Run(r.to - r.from)
			after := liveMB()
			t.Logf("live heap: %.2f MB at round %d, %.2f MB at round %d (%+.1f %%)",
				before, r.from, after, r.to, 100*(after/before-1))
			if after > before*1.05 {
				t.Errorf("live heap grew from %.2f MB at round %d to %.2f MB at round %d (> 5 %%)",
					before, r.from, after, r.to)
			}
		})
	}
}
