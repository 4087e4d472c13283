package core_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/update"
)

// TestLiftTablesReleasedPastWindow: an update's comb table serves the
// buffermap lifts of every round that can still name the update — those up
// to its deadline — and is gone at deadline + 1, whether the table is the
// session's (interned content) or each node's own.
func TestLiftTablesReleasedPastWindow(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   *update.Interner
	}{
		{"interned", update.NewInterner()},
		{"private", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 8, 2, withTTL(3), withIntern(tc.in))
			if tc.in != nil {
				// The session's round-top hook (pag.go).
				h.engine.OnRoundStart(func(r model.Round) { tc.in.DropExpired(r) })
			}
			live, released := 0, 0
			for r := model.Round(1); r <= 14; r++ {
				h.engine.Run(1)
				if h.engine.Round() != r {
					t.Fatalf("engine at round %d, want %d", h.engine.Round(), r)
				}
				for id, n := range h.nodes {
					for rr := model.Round(1); rr <= r; rr++ {
						for _, e := range n.Store().ReceivedIn(rr) {
							if e.Embed == nil {
								t.Fatalf("node %v: stored update %v has no embedding", id, e.Update.ID)
							}
							switch past := e.Update.Expired(r); {
							case past && e.Embed.HasTable():
								t.Fatalf("round %d node %v: update %v (deadline %d) still has its table",
									r, id, e.Update.ID, e.Update.Deadline)
							case past:
								released++
							case e.Embed.HasTable():
								live++
							}
						}
					}
				}
			}
			if live == 0 || released == 0 {
				t.Fatalf("saw %d live and %d released tables: the path was not exercised", live, released)
			}
			h.requireNoVerdictsExcept()
		})
	}
}

// TestParkedShellsReleaseContent: the forward-set shells a node recycles
// across rounds must not keep the previous round's updates alive — not on
// the free list, and not in the tail of the reused items array once the
// forward set shrinks.
func TestParkedShellsReleaseContent(t *testing.T) {
	h := newHarness(t, 8, 4)
	h.engine.Run(4)
	h.perRound = 0 // the forward sets drain: every reused array gets a stale tail
	for r := 0; r < 6; r++ {
		h.engine.Run(1)
		for id, n := range h.nodes {
			if n.ParkedShellsHoldContent() {
				t.Fatalf("node %v: a parked pendingItem still references update content", id)
			}
		}
	}
}
