package core

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hhash"
	"repro/internal/model"
	"repro/internal/pki"
	"repro/internal/transport"
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
	n.send = sendRound{items: items, kPrev: testKey(t, seed)}
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
				sr := &n.send

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
				var att wire.Attestation
				if err := att.Decode(ex.attBytes); err != nil {
					t.Fatal(err)
				}
				wantExp, expOps := hashSet(t, oracle, &ops, c.prime, exp)
				wantFwd, fwdOps := hashSet(t, oracle, &ops, c.prime, fwd)
				for _, v := range []struct {
					got  []byte
					want *big.Int
				}{{att.HExpiring, wantExp}, {att.HForwardable, wantFwd}} {
					if got, err := n.sh.HashParams.DecodeValue(new(big.Int), v.got); err != nil || got.Cmp(v.want) != 0 {
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
		sr := &c.node.send
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

// openExchange gives n's round a record for succ, as BeginRound does. The
// pointer is valid until the next one is opened.
func openExchange(n *Node, succ model.NodeID) *sendExchange {
	n.send.succs = append(n.send.succs, sendExchange{succ: succ})
	return &n.send.succs[len(n.send.succs)-1]
}

// everyOtherTag is a buffermap holding every other item of c's forward set
// under c's prime: a successor that owns half of what it is served.
func everyOtherTag(c *attestationCheck) update.BufferMap {
	s := getTagScratch()
	defer s.release()
	for _, it := range c.node.send.items {
		s.embeds = append(s.embeds, it.embed)
	}
	var bm update.BufferMap
	for i, tag := range c.node.tagsOf(s, c.prime) {
		if i%2 == 0 {
			bm = append(bm, tag)
		}
	}
	slices.Sort(bm)
	return bm
}

// TestServeAllocations: serving a successor whose buffermap holds every
// other item costs the same allocations for 20 items as for 200 — the
// Serve is built in the node's outgoing Serve, whose lists keep their
// arrays, sealed and encrypted in pooled buffers and lent to the send — and
// fewer than the 15 objects a serve cost while the node kept every
// Serve's ciphertext and a heap copy of its Attestation. Accusing the
// unacknowledged successor, which seals the Serve again, is flat in the
// items too. One exchange shell is reused, as BeginRound reuses them, and
// each call ends as a round does: the evidence buffer rewound, the net
// drained (which recycles its send arena).
func TestServeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const keptServeAllocs = 15
	allocs := func(size int) (serve, accusation float64) {
		c := newAttestationCheck(t, 5)
		servedRound(t, c, size, 3)
		n := c.node
		succ := n.sh.Directory.Successors(n.id, n.round)[0]
		if _, err := n.sh.Suite.(*pki.FastSuite).NewIdentity(succ); err != nil {
			t.Fatal(err)
		}
		bm := everyOtherTag(c)
		ex := openExchange(n, succ)
		serve = testing.AllocsPerRun(20, func() {
			*ex = sendExchange{succ: succ, refs: ex.refs[:0]}
			n.evidence = n.evidence[:0]
			n.serve(succ, ex, c.prime, bm)
			c.net.DeliverAll()
		})
		if !ex.served || ex.nServed != size {
			t.Fatalf("served %v, %d items recorded, want %d", ex.served, ex.nServed, size)
		}
		accusation = testing.AllocsPerRun(20, func() {
			ex.accused = false
			n.raiseAccusations(n.round)
			c.net.DeliverAll()
		})
		if !ex.accused {
			t.Fatal("the unacknowledged successor was not accused")
		}
		return serve, accusation
	}
	smallServe, smallAcc := allocs(20)
	largeServe, largeAcc := allocs(200)
	t.Logf("serve: %.0f objects; accusation: %.0f", smallServe, smallAcc)
	if smallServe != largeServe {
		t.Errorf("serving 20 items allocates %.0f objects, 200 items %.0f", smallServe, largeServe)
	}
	if smallServe > keptServeAllocs-1 {
		t.Errorf("serving allocates %.0f objects, want fewer than the %d of a kept ciphertext", smallServe, keptServeAllocs)
	}
	if smallAcc != largeAcc {
		t.Errorf("an accusation's Serve of 20 items allocates %.0f objects, of 200 %.0f", smallAcc, largeAcc)
	}
}

// TestAccusationServeMatchesServed: the Serve an accusation carries is
// sealed again from what its exchange recorded, so opened by the
// successor it is the very plaintext that was served — payloads and refs
// as they went, a DropUpdates deviator's trimmed tail left out — or, for a
// successor that never answered its KeyRequest, every item of the round's
// forward set in full, at the length of the ciphertext that went out.
func TestAccusationServeMatchesServed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		drop   int
		opened []bool // per successor, in directory order: served, or never answered
	}{
		{"half as refs", 0, []bool{true}},
		{"never answered", 0, []bool{false}},
		{"DropUpdates=5", 5, []bool{true, false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newAttestationCheck(t, 5)
			n := c.node
			n.cfg.Behavior.DropUpdates = tc.drop
			servedRound(t, c, 24, 2)
			suite := n.sh.Suite.(*pki.FastSuite)

			// Every other id listens, keeping its Serves and Accusations.
			got := map[model.NodeID][][]byte{}
			for id := model.NodeID(1); id <= 8; id++ {
				if id == n.id {
					continue
				}
				if _, err := c.net.Register(id, func(m transport.Message) {
					if m.Kind == wire.KindServe || m.Kind == wire.KindAccusation {
						got[m.To] = append(got[m.To], bytes.Clone(m.Payload))
					}
				}); err != nil {
					t.Fatal(err)
				}
			}

			type want struct {
				succ  model.NodeID
				id    pki.Identity
				plain []byte
				size  int // of the ciphertext
			}
			var wants []want
			for i, opened := range tc.opened {
				succ := n.sh.Directory.Successors(n.id, n.round)[i]
				id, err := suite.NewIdentity(succ)
				if err != nil {
					t.Fatal(err)
				}
				ex := openExchange(n, succ)
				w := want{succ: succ, id: id}
				if opened {
					n.serve(succ, ex, c.prime, everyOtherTag(c))
					c.net.DeliverAll()
					if len(got[succ]) != 1 {
						t.Fatalf("successor %v received %d Serves, want 1", succ, len(got[succ]))
					}
					cipher := got[succ][0]
					if w.plain, err = id.DecryptAppend(nil, cipher); err != nil {
						t.Fatal(err)
					}
					srv, err := wire.UnmarshalServe(w.plain)
					if err != nil {
						t.Fatal(err)
					}
					if served := len(n.send.items) - tc.drop; len(srv.Refs) == 0 || len(srv.Full)+len(srv.Refs) != served {
						t.Fatalf("served %d payloads and %d refs, want %d items, some as refs", len(srv.Full), len(srv.Refs), served)
					}
					w.size = len(cipher)
				} else {
					full := &wire.Serve{Round: n.round, From: n.id, To: succ, KPrev: n.send.kPrev.Bytes()}
					for _, it := range n.send.items {
						full.Full = append(full.Full, wire.ServedUpdate{Update: it.upd, Count: it.count})
					}
					pw := wire.GetWriter()
					sealed, err := wire.Seal(pw, full, n.cfg.Identity)
					if err != nil {
						t.Fatal(err)
					}
					w.plain = bytes.Clone(sealed)
					pw.Release()
					w.size = len(w.plain) + suite.CiphertextOverhead()
				}
				wants = append(wants, w)
			}

			clear(got)
			n.raiseAccusations(n.round)
			c.net.DeliverAll()
			for _, w := range wants {
				accused := 0
				for _, copies := range got {
					for _, b := range copies {
						var acc wire.Accusation
						if acc.Decode(b) != nil || acc.Against != w.succ {
							continue
						}
						accused++
						plain, err := w.id.DecryptAppend(nil, acc.ServeCipher)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(plain, w.plain) {
							t.Errorf("successor %v: the accusation's Serve is not the one sealed for it", w.succ)
						}
						if len(acc.ServeCipher) != w.size {
							t.Errorf("successor %v: the accusation's ciphertext is %d bytes, the Serve's %d", w.succ, len(acc.ServeCipher), w.size)
						}
					}
				}
				want := 0 // the monitors that listen: every one but the accuser
				for _, m := range n.sh.Directory.Monitors(w.succ, n.round) {
					if m != n.id {
						want++
					}
				}
				if accused == 0 || accused != want {
					t.Errorf("successor %v: accused to %d monitors, want %d", w.succ, accused, want)
				}
			}
		})
	}
}

// raceEnabled is set by race_test.go under the race detector, whose
// instrumentation allocates.
var raceEnabled bool
