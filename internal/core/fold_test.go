package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hhash"
	"repro/internal/model"
	"repro/internal/pki"
	"repro/internal/update"
	"repro/internal/wire"
)

// servedRound gives c's node a round-4 forward set of size seeded items,
// multiplicities 1 to 15, a third of them expiring next round, and folds
// it as BeginRound does, reporting the hash-ops the fold charged.
func servedRound(t *testing.T, c *attestationCheck, size int, seed int64) uint64 {
	t.Helper()
	n := c.node
	rng := rand.New(rand.NewSource(seed))
	n.round = 4
	items := make([]pendingItem, size)
	for i := range items {
		u := update.Update{ID: model.UpdateID{Seq: uint64(i)}, Deadline: n.round + model.Round(rng.Intn(3)),
			Payload: make([]byte, 32+rng.Intn(64)), SrcSig: []byte("sig")}
		rng.Read(u.Payload)
		items[i] = pendingItem{upd: u, count: 1 + uint64(rng.Intn(15)), embed: n.embed(&u)}
	}
	n.sendCur = &sendRound{items: items, kPrev: testKey(t, seed), perSucc: make(map[model.NodeID]*sendExchange)}
	before := n.hops.HashOps()
	n.foldServed()
	return n.hops.HashOps() - before
}

// hashSet is the oracle: HashSet over the items' canonical bytes, with the
// hash-ops it charges.
func hashSet(t *testing.T, h *hhash.Hasher, ops *hhash.Counter, key hhash.Key, items []pendingItem) (*big.Int, uint64) {
	t.Helper()
	var bs [][]byte
	var counts []uint64
	for _, it := range items {
		bs = append(bs, it.upd.CanonicalBytes())
		counts = append(counts, it.count)
	}
	ops.Reset()
	v, err := h.HashSet(key, bs, counts)
	if err != nil {
		t.Fatal(err)
	}
	return v, ops.HashOps()
}

// TestServedFoldMatchesHashSet: the served set folded once per round gives
// what HashSet gives over the same items, in every value that leaves it —
// the expected Ack, a successor's two attested hashes, and a DropUpdates
// deviator's per-Ack expectation over its trimmed set — and charges the
// hash-ops HashSet charges for each: folding once changes no node's count.
func TestServedFoldMatchesHashSet(t *testing.T) {
	for _, drop := range []int{0, 5} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("DropUpdates=%d/seed=%d", drop, seed), func(t *testing.T) {
				c := newAttestationCheck(t, 5)
				n := c.node
				n.cfg.Behavior.DropUpdates = drop
				var ops hhash.Counter
				oracle := hhash.NewHasher(n.sh.HashParams, &ops)
				folded := servedRound(t, c, 10*int(seed), seed)
				sr := n.sendCur

				want, wantOps := hashSet(t, oracle, &ops, sr.kPrev, sr.items)
				if sr.expectedAckH.Cmp(want) != 0 || folded != wantOps {
					t.Fatalf("expected Ack %v (%d hash-ops), HashSet %v (%d)", sr.expectedAckH, folded, want, wantOps)
				}

				served := n.servedItems()
				var exp, fwd []pendingItem
				for _, it := range served {
					if it.upd.ExpiresNextRound(n.round) {
						exp = append(exp, it)
					} else {
						fwd = append(fwd, it)
					}
				}
				const succ = model.NodeID(7)
				if _, err := n.sh.Suite.(*pki.FastSuite).NewIdentity(succ); err != nil {
					t.Fatal(err)
				}
				ex := &sendExchange{}
				before := n.hops.HashOps()
				n.serve(succ, ex, c.prime, nil)
				serveOps := n.hops.HashOps() - before
				att, err := wire.UnmarshalAttestation(ex.attBytes)
				if err != nil {
					t.Fatal(err)
				}
				wantExp, expOps := hashSet(t, oracle, &ops, c.prime, exp)
				wantFwd, fwdOps := hashSet(t, oracle, &ops, c.prime, fwd)
				for _, v := range []struct {
					got  []byte
					want *big.Int
				}{{att.HExpiring, wantExp}, {att.HForwardable, wantFwd}} {
					if got, err := n.sh.HashParams.DecodeValue(v.got); err != nil || got.Cmp(v.want) != 0 {
						t.Fatalf("attested %v, HashSet %v", got, v.want)
					}
				}
				if serveOps != expOps+fwdOps {
					t.Fatalf("the serve charged %d hash-ops, HashSet %d", serveOps, expOps+fwdOps)
				}

				want, wantOps = hashSet(t, oracle, &ops, sr.kPrev, served)
				before = n.hops.HashOps()
				got := n.expectedAckFor()
				charged := n.hops.HashOps() - before
				if drop == 0 {
					wantOps = 0 // the round's value, computed at BeginRound
				}
				if got.Cmp(want) != 0 || charged != wantOps {
					t.Fatalf("per-Ack expectation %v (%d hash-ops), HashSet %v (%d)", got, charged, want, wantOps)
				}
			})
		}
	}
}

// TestServedFoldAllocations: folding the served set costs the same
// allocations for 20 items as for 200 — nothing per item.
func TestServedFoldAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	allocs := func(size int) float64 {
		c := newAttestationCheck(t, 5)
		servedRound(t, c, size, 3)
		sr := c.node.sendCur
		return testing.AllocsPerRun(20, func() {
			sr.exp.Reset()
			sr.fwd.Reset()
			c.node.foldServed()
		})
	}
	if small, large := allocs(20), allocs(200); small != large {
		t.Fatalf("a fold of 20 items allocates %.0f objects, of 200 %.0f", small, large)
	}
}

// TestServeAllocations: serving a successor whose buffermap holds every
// other item costs the same allocations for 20 items as for 200 — the
// Serve's payload and reference lists are each allocated once — and so
// does the full Serve an accusation records.
func TestServeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const succ = model.NodeID(7)
	allocs := func(size int) (serve, accusation float64) {
		c := newAttestationCheck(t, 5)
		servedRound(t, c, size, 3)
		n := c.node
		if _, err := n.sh.Suite.(*pki.FastSuite).NewIdentity(succ); err != nil {
			t.Fatal(err)
		}
		s := getTagScratch()
		for _, it := range n.sendCur.items {
			s.embeds = append(s.embeds, it.embed)
		}
		var bm update.BufferMap
		for i, tag := range n.tagsOf(s, c.prime) {
			if i%2 == 0 {
				bm = append(bm, tag)
			}
		}
		s.release()
		slices.Sort(bm)
		serve = testing.AllocsPerRun(20, func() { n.serve(succ, &sendExchange{}, c.prime, bm) })
		accusation = testing.AllocsPerRun(20, func() { n.serveForAccusation(succ, &sendExchange{}) })
		return serve, accusation
	}
	smallServe, smallAcc := allocs(20)
	largeServe, largeAcc := allocs(200)
	if smallServe != largeServe {
		t.Errorf("serving 20 items allocates %.0f objects, 200 items %.0f", smallServe, largeServe)
	}
	if smallAcc != largeAcc {
		t.Errorf("an accusation's Serve of 20 items allocates %.0f objects, of 200 %.0f", smallAcc, largeAcc)
	}
}

// raceEnabled is set by race_test.go under the race detector, whose
// instrumentation allocates.
var raceEnabled bool
