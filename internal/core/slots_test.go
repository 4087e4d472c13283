package core_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestPayloadCopiesPerReception: with a successor's exchanges opened one
// slot after the other and its whole live set in every buffermap, a payload
// crosses a link about once per first reception — what is left above one is
// predecessors sharing the last slot — and never for an update the receiver
// already held when it answered that exchange's KeyRequest. The 48-node
// session runs on the parallel engine, so the slot steps and their barriers
// are under the race detector.
func TestPayloadCopiesPerReception(t *testing.T) {
	for _, tc := range []struct {
		name           string
		nodes, workers int
	}{
		{"16 nodes serial", 16, 0},
		{"48 nodes parallel", 48, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []harnessOpt{withTTL(5)}
			if tc.workers > 0 {
				opts = append(opts, withWorkers(tc.workers))
			}
			h := newHarness(t, tc.nodes, 6, opts...)

			// What each B held when it answered A's KeyRequest this round,
			// and the payloads that came back for any of it.
			type exchange struct{ a, b model.NodeID }
			var mu sync.Mutex
			held := map[exchange]map[model.UpdateID]bool{}
			heldPayloads := 0
			h.deliver = func(n *core.Node, m transport.Message) {
				key := exchange{m.From, m.To}
				switch m.Kind {
				case wire.KindKeyRequest:
					n.HandleMessage(m)
					owned := map[model.UpdateID]bool{}
					for _, e := range n.Store().OwnedInWindow(n.Round(), 0) {
						owned[e.Update.ID] = true
					}
					mu.Lock()
					held[key] = owned
					mu.Unlock()
					return
				case wire.KindServe:
					plain, err := h.identities[m.To].Decrypt(m.Payload)
					if err != nil {
						t.Error(err)
						break
					}
					srv, err := wire.UnmarshalServe(plain)
					if err != nil {
						t.Error(err)
						break
					}
					mu.Lock()
					for _, su := range srv.Full {
						if held[key][su.Update.ID] {
							heldPayloads++
						}
					}
					mu.Unlock()
				}
				n.HandleMessage(m)
			}
			h.engine.OnRoundStart(func(model.Round) { clear(held) })
			h.engine.Run(14)

			h.requireNoVerdictsExcept()
			var payloads, first uint64
			for _, n := range h.nodes {
				st := n.Stats()
				payloads += st.PayloadsSent
				first += st.UpdatesReceived
			}
			if first == 0 {
				t.Fatal("nothing was received")
			}
			copies := float64(payloads) / float64(first)
			t.Logf("%d payloads for %d first receptions: %.3f copies", payloads, first, copies)
			if copies > 1.06 {
				t.Errorf("%.3f payload copies per first reception, want at most 1.06", copies)
			}
			if heldPayloads != 0 {
				t.Errorf("%d payloads served for updates the receiver held when it answered the KeyRequest", heldPayloads)
			}
		})
	}
}
