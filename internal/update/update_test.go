package update

import (
	"bytes"
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/hhash"
	"repro/internal/model"
)

type fakeSigner struct{ calls int }

func (f *fakeSigner) Sign(msg []byte) ([]byte, error) {
	f.calls++
	return []byte{0x51, byte(len(msg))}, nil
}

func mkUpdate(seq uint64, deadline model.Round) Update {
	return Update{
		ID:       model.UpdateID{Stream: 1, Seq: seq},
		Deadline: deadline,
		Payload:  []byte{byte(seq), 0xFF},
	}
}

func TestCanonicalBytesDeterministic(t *testing.T) {
	u := mkUpdate(7, 12)
	if !bytes.Equal(u.CanonicalBytes(), u.CanonicalBytes()) {
		t.Fatal("canonical bytes not deterministic")
	}
}

func TestCanonicalBytesDistinguishes(t *testing.T) {
	u1 := mkUpdate(7, 12)
	u2 := mkUpdate(8, 12)
	u3 := mkUpdate(7, 13)
	u4 := mkUpdate(7, 12)
	u4.Payload = []byte{9, 9}
	for i, other := range []Update{u2, u3, u4} {
		if bytes.Equal(u1.CanonicalBytes(), other.CanonicalBytes()) {
			t.Fatalf("case %d: distinct updates share canonical bytes", i)
		}
	}
}

func TestCanonicalBytesProperty(t *testing.T) {
	f := func(seq uint64, deadline uint32, payload []byte) bool {
		u := Update{
			ID:       model.UpdateID{Stream: 3, Seq: seq},
			Deadline: model.Round(deadline),
			Payload:  payload,
		}
		b := u.CanonicalBytes()
		return len(b) == 4+8+8+4+len(payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpiry(t *testing.T) {
	u := mkUpdate(1, 10)
	if u.Expired(10) {
		t.Fatal("update expired at its own deadline")
	}
	if !u.Expired(11) {
		t.Fatal("update not expired after deadline")
	}
	if !u.ExpiresNextRound(10) {
		t.Fatal("forwarding at r=10 with deadline 10 should be expiring-list")
	}
	if u.ExpiresNextRound(9) {
		t.Fatal("deadline 10 at r=9 should still be forwardable")
	}
}

func TestStoreAddAndMultiplicity(t *testing.T) {
	s := NewStore()
	u := mkUpdate(1, 20)

	if !s.Add(u, 5, 1, true) {
		t.Fatal("first Add should report new")
	}
	if s.Add(u, 6, 3, false) {
		t.Fatal("second Add should report duplicate")
	}
	e := s.Get(u.ID)
	if e == nil {
		t.Fatal("entry missing")
	}
	if e.Count != 4 {
		t.Fatalf("Count = %d, want 4", e.Count)
	}
	if e.Received != 5 {
		t.Fatalf("Received = %v, want 5 (first reception)", e.Received)
	}
	if !e.Forwardable {
		t.Fatal("Forwardable must not be narrowed by a later expiring copy")
	}
	if s.Len() != 1 || !s.Has(u.ID) {
		t.Fatal("store bookkeeping wrong")
	}
}

func TestStoreZeroCountBecomesOne(t *testing.T) {
	s := NewStore()
	s.Add(mkUpdate(1, 20), 1, 0, true)
	if got := s.Get(model.UpdateID{Stream: 1, Seq: 1}).Count; got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
}

func TestStoreForwardableWidening(t *testing.T) {
	s := NewStore()
	u := mkUpdate(2, 20)
	s.Add(u, 1, 1, false)
	if s.Get(u.ID).Forwardable {
		t.Fatal("expiring copy should not be forwardable")
	}
	s.Add(u, 1, 1, true)
	if !s.Get(u.ID).Forwardable {
		t.Fatal("forwardable copy should widen")
	}
}

func TestReceivedInOrdering(t *testing.T) {
	s := NewStore()
	s.Add(mkUpdate(9, 20), 3, 1, true)
	s.Add(mkUpdate(2, 20), 3, 1, true)
	s.Add(mkUpdate(5, 20), 4, 1, true) // other round
	got := s.ReceivedIn(3)
	if len(got) != 2 {
		t.Fatalf("len = %d, want 2", len(got))
	}
	if got[0].Update.ID.Seq != 2 || got[1].Update.ID.Seq != 9 {
		t.Fatal("entries not in canonical order")
	}
	if len(s.ReceivedIn(99)) != 0 {
		t.Fatal("unknown round should be empty")
	}
}

func TestOwnedInWindow(t *testing.T) {
	s := NewStore()
	for seq, round := range map[uint64]model.Round{1: 1, 2: 2, 3: 3, 4: 4, 5: 5} {
		s.Add(mkUpdate(seq, 50), round, 1, true)
	}
	got := s.OwnedInWindow(5, 4) // rounds 2..5
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if !got[i-1].Update.ID.Less(got[i].Update.ID) {
			t.Fatal("window not in canonical order")
		}
	}
	// Window larger than history must not underflow.
	got = s.OwnedInWindow(2, 10)
	if len(got) != 2 {
		t.Fatalf("early-round window len = %d, want 2", len(got))
	}
}

func TestUndelivered(t *testing.T) {
	s := NewStore()
	s.Add(mkUpdate(1, 5), 1, 1, true)
	s.Add(mkUpdate(2, 9), 1, 1, true)
	got := s.Undelivered(5)
	if len(got) != 1 || got[0].Update.ID.Seq != 1 {
		t.Fatalf("Undelivered(5) = %v entries", len(got))
	}
	got[0].Delivered = true
	if len(s.Undelivered(5)) != 0 {
		t.Fatal("delivered entry still reported")
	}
	if len(s.Undelivered(9)) != 1 {
		t.Fatal("deadline-9 update should be ready at round 9")
	}
}

// undeliveredByWalk is Undelivered as it was before the store kept an
// index: every stored entry visited, the ready ones sorted.
func undeliveredByWalk(s *Store, r model.Round) []*Entry {
	var out []*Entry
	for _, e := range s.byID {
		if !e.Delivered && e.Update.Deadline <= r {
			out = append(out, e)
		}
	}
	sortEntries(out)
	return out
}

// TestUndeliveredMatchesWalk drives a store through a random schedule of
// receptions (new and duplicate, on time and late), partial deliveries —
// through Undelivered's result and through Get — and retirements, entry
// recycling included, and holds every Undelivered call to the map walk:
// the same entries in the same order.
func TestUndeliveredMatchesWalk(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		s := NewStore()
		var seq uint64
		for r := model.Round(1); r <= 80; r++ {
			for i := rnd.Intn(9); i > 0; i-- {
				id := seq
				if seq > 0 && rnd.Intn(4) == 0 {
					id = uint64(rnd.Int63n(int64(seq))) // a duplicate, or a retired id again
				} else {
					seq++
				}
				deadline := r + model.Round(rnd.Intn(12)) - 2 // some arrive already due
				s.Add(mkUpdate(id, deadline), r, 1, rnd.Intn(2) == 0)
			}
			if rnd.Intn(5) == 0 && seq > 0 {
				if e := s.Get(model.UpdateID{Stream: 1, Seq: uint64(rnd.Int63n(int64(seq)))}); e != nil {
					e.Delivered = true // delivered without having been listed
				}
			}
			if rnd.Intn(4) != 0 {
				at := r - model.Round(rnd.Intn(3))
				want := undeliveredByWalk(s, at)
				got := s.Undelivered(at)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d round %d: Undelivered(%d) = %d entries, the walk finds %d (or another order)",
						trial, r, at, len(got), len(want))
				}
				for _, e := range got {
					if rnd.Intn(6) != 0 { // a few stay for the next call
						e.Delivered = true
					}
				}
			}
			if horizon := model.Round(rnd.Intn(20)); rnd.Intn(3) == 0 && r > horizon {
				s.DropBefore(r - horizon)
			}
		}
		if got, want := s.Undelivered(1000), undeliveredByWalk(s, 1000); !slices.Equal(got, want) {
			t.Fatalf("trial %d: final sweep differs", trial)
		}
	}
}

func TestDropBefore(t *testing.T) {
	s := NewStore()
	s.Add(mkUpdate(1, 50), 1, 1, true)
	s.Add(mkUpdate(2, 50), 2, 1, true)
	s.Add(mkUpdate(3, 50), 3, 1, true)
	if got := s.DropBefore(3); got != 2 {
		t.Fatalf("dropped %d, want 2", got)
	}
	if s.Len() != 1 || s.Has(model.UpdateID{Stream: 1, Seq: 1}) {
		t.Fatal("DropBefore left stale entries")
	}
	if got := s.DropBefore(3); got != 0 {
		t.Fatal("second DropBefore should drop nothing")
	}
}

// TestDropBeforeClearsRetiredEntries: a retired entry waits on the free
// list for an unbounded time, so it must not keep its payload, signature
// or embedding alive while it waits.
func TestDropBeforeClearsRetiredEntries(t *testing.T) {
	s := NewStore()
	for seq := uint64(1); seq <= 5; seq++ {
		u := mkUpdate(seq, 50)
		u.SrcSig = []byte{0x51, byte(seq)}
		s.Add(u, model.Round(seq), 1, true)
		s.Get(u.ID).Embed = hhash.NewFixedBase(big.NewInt(int64(seq)), 64)
	}
	if got := s.DropBefore(4); got != 3 {
		t.Fatalf("dropped %d, want 3", got)
	}
	if len(s.free) != 3 {
		t.Fatalf("%d entries on the free list, want 3", len(s.free))
	}
	for i, e := range s.free {
		if e.Update.Payload != nil || e.Update.SrcSig != nil || e.Embed != nil {
			t.Errorf("free entry %d still references payload=%v sig=%v embed=%v",
				i, e.Update.Payload != nil, e.Update.SrcSig != nil, e.Embed != nil)
		}
	}
	// A recycled slot starts from the zero Entry.
	s.Add(mkUpdate(9, 60), 9, 1, false)
	if e := s.Get(model.UpdateID{Stream: 1, Seq: 9}); e.Embed != nil || e.Delivered || e.Count != 1 {
		t.Fatalf("recycled entry not clean: %+v", e)
	}
}

// TestReleaseLiftTables: the tables of exactly the updates whose deadline
// is before the bound are released, once; embeddings stay.
func TestReleaseLiftTables(t *testing.T) {
	params, err := hhash.ParamsFromModulus(big.NewInt(0xfff1))
	if err != nil {
		t.Fatal(err)
	}
	h := hhash.NewHasher(params, nil)
	key, err := hhash.KeyFromInt(big.NewInt(0x1d))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	for seq, deadline := range []model.Round{5, 6, 6, 7, 9} {
		u := mkUpdate(uint64(seq), deadline)
		s.Add(u, 2, 1, true)
		e := s.Get(u.ID)
		s.SetOwnEmbed(e, hhash.NewFixedBase(big.NewInt(int64(seq)+2), 8))
		h.LiftFixed(e.Embed, key)
		if !e.Embed.HasTable() {
			t.Fatal("lift built no table")
		}
	}
	s.Add(mkUpdate(99, 5), 2, 1, true) // no embedding yet: nothing to release
	tabled := func() (n int) {
		for _, e := range s.ReceivedIn(2) {
			if e.Embed != nil && e.Embed.HasTable() {
				n++
			}
		}
		return n
	}
	for _, step := range []struct {
		before model.Round
		want   int
	}{{5, 5}, {6, 4}, {7, 2}, {7, 2}, {10, 0}} {
		s.ReleaseLiftTables(step.before)
		if got := tabled(); got != step.want {
			t.Fatalf("after ReleaseLiftTables(%d): %d tables, want %d", step.before, got, step.want)
		}
	}
	if len(s.liftTables) != 0 {
		t.Fatalf("deadline index keeps %d released rounds", len(s.liftTables))
	}
	for _, e := range s.ReceivedIn(2) {
		if e.Update.ID.Seq != 99 && (e.Embed == nil || e.Embed.Value() == nil) {
			t.Fatal("release dropped an embedding")
		}
	}
}

// TestInternerReleasesSharedLiftTables: interned content gets one shared
// embedding, reported as shared; divergent or unknown content gets the
// caller's own; DropExpired releases the shared table with the entry.
func TestInternerReleasesSharedLiftTables(t *testing.T) {
	params, err := hhash.ParamsFromModulus(big.NewInt(0xfff1))
	if err != nil {
		t.Fatal(err)
	}
	h := hhash.NewHasher(params, nil)
	key, err := hhash.KeyFromInt(big.NewInt(0x1d))
	if err != nil {
		t.Fatal(err)
	}
	computed := 0
	compute := func() *hhash.FixedBase {
		computed++
		return hhash.NewFixedBase(big.NewInt(int64(computed)+1), 8)
	}

	in := NewInterner()
	early, late := in.Canonical(mkUpdate(1, 5)), in.Canonical(mkUpdate(2, 9))
	b1, shared := in.SharedEmbed(early, compute)
	if !shared {
		t.Fatal("interned content not reported as shared")
	}
	if again, _ := in.SharedEmbed(early, compute); again != b1 || computed != 1 {
		t.Fatalf("second lookup recomputed (%d computes) or returned another object", computed)
	}
	b2, _ := in.SharedEmbed(late, compute)
	if own, shared := in.SharedEmbed(mkUpdate(1, 5), compute); shared || own == b1 {
		t.Fatal("a copy that did not go through Canonical was given the shared embedding")
	}
	if _, shared := (*Interner)(nil).SharedEmbed(early, compute); shared {
		t.Fatal("nil interner reported a shared embedding")
	}

	h.LiftFixed(b1, key)
	h.LiftFixed(b2, key)
	if in.DropExpired(5) != 0 || !b1.HasTable() {
		t.Fatal("DropExpired(5) touched an update whose deadline is 5")
	}
	if in.DropExpired(6) != 1 || b1.HasTable() || !b2.HasTable() {
		t.Fatalf("DropExpired(6): early table attached = %v, late = %v", b1.HasTable(), b2.HasTable())
	}
}

func TestBufferMap(t *testing.T) {
	bm := NewBufferMap([]uint64{9, 1 << 63, 3, 9, 0})
	if !slices.Equal(bm, BufferMap{0, 3, 9, 1 << 63}) {
		t.Fatalf("NewBufferMap = %v, want sorted without duplicates", bm)
	}
	for _, tag := range bm {
		if !bm.Contains(tag) {
			t.Fatalf("Contains(%d) false negative", tag)
		}
	}
	for _, tag := range []uint64{1, 4, 1<<63 - 1, 1<<64 - 1} {
		if bm.Contains(tag) {
			t.Fatalf("Contains(%d) false positive", tag)
		}
	}
	var empty BufferMap
	if empty.Contains(0) {
		t.Fatal("zero BufferMap should contain nothing")
	}
}

// TestTagMatchSetEqualsFullWidthMatchSet: over random stores, windows and
// forward sets, matching the requester's candidates against the
// responder's 64-bit tags selects exactly the updates that matching the
// full-width hash values selects.
func TestTagMatchSetEqualsFullWidthMatchSet(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	params, err := hhash.GenerateParams(rng, 128)
	if err != nil {
		t.Fatal(err)
	}
	h := hhash.NewHasher(params, nil)
	lift := func(u *Update, prime hhash.Key) *big.Int {
		return h.Lift(h.Embed(u.CanonicalBytes()), prime)
	}
	for trial := 0; trial < 40; trial++ {
		prime, err := hhash.GeneratePrimeKey(rng, 128)
		if err != nil {
			t.Fatal(err)
		}
		const now, window = model.Round(9), 4
		store := NewStore()
		var candidates []Update
		for seq := uint64(0); seq < 60; seq++ {
			u := mkUpdate(uint64(trial)<<16|seq, now+3)
			if rng.Intn(2) == 0 { // the responder has it, inside the window or before
				store.Add(u, now-model.Round(rng.Intn(2*window)), 1, true)
			}
			if rng.Intn(2) == 0 { // the requester forwards it
				candidates = append(candidates, u)
			}
		}
		owned := store.OwnedInWindow(now, window)
		full := map[string]bool{}
		tags := make([]uint64, len(owned))
		for i, e := range owned {
			v := lift(&e.Update, prime)
			enc, err := params.EncodeValue(v)
			if err != nil {
				t.Fatal(err)
			}
			full[string(enc)] = true
			tags[i] = params.Tag(v)
		}
		bm := NewBufferMap(tags)
		if len(bm) != len(owned) {
			t.Fatalf("trial %d: %d tags for %d owned updates", trial, len(bm), len(owned))
		}
		matched := 0
		for i := range candidates {
			v := lift(&candidates[i], prime)
			enc, _ := params.EncodeValue(v)
			if bm.Contains(params.Tag(v)) != full[string(enc)] {
				t.Fatalf("trial %d: update %v matches by tag %v, by value %v",
					trial, candidates[i].ID, bm.Contains(params.Tag(v)), full[string(enc)])
			}
			if full[string(enc)] {
				matched++
			}
		}
		if trial == 0 && (matched == 0 || matched == len(candidates)) {
			t.Fatalf("degenerate trial: %d of %d candidates matched", matched, len(candidates))
		}
	}
}

func TestForwardSplit(t *testing.T) {
	r := model.Round(10)
	expired := &Entry{Update: mkUpdate(1, 9)}      // already dead
	expiring := &Entry{Update: mkUpdate(2, 10)}    // dies next round
	forwardable := &Entry{Update: mkUpdate(3, 15)} // lives on

	exp, fwd := ForwardSplit([]*Entry{expired, expiring, forwardable}, r)
	if len(exp) != 1 || exp[0].Update.ID.Seq != 2 {
		t.Fatalf("expiring = %v", exp)
	}
	if len(fwd) != 1 || fwd[0].Update.ID.Seq != 3 {
		t.Fatalf("forwardable = %v", fwd)
	}
}

func TestGeneratorEmit(t *testing.T) {
	signer := &fakeSigner{}
	g, err := NewGenerator(1, signer, 32, 10)
	if err != nil {
		t.Fatal(err)
	}
	us, err := g.Emit(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(us) != 3 || signer.calls != 3 {
		t.Fatalf("emitted %d, signed %d", len(us), signer.calls)
	}
	for i, u := range us {
		if u.ID.Seq != uint64(i) {
			t.Fatalf("seq[%d] = %d", i, u.ID.Seq)
		}
		if u.Deadline != 15 {
			t.Fatalf("deadline = %v, want 15", u.Deadline)
		}
		if len(u.Payload) != 32 {
			t.Fatalf("payload = %d bytes", len(u.Payload))
		}
		if len(u.SrcSig) == 0 {
			t.Fatal("missing source signature")
		}
	}
	if g.NextSeq() != 3 {
		t.Fatalf("NextSeq = %d", g.NextSeq())
	}
	// Sequence numbers continue across Emit calls.
	more, _ := g.Emit(6, 1)
	if more[0].ID.Seq != 3 {
		t.Fatal("sequence did not continue")
	}
}

func TestGeneratorPayloadDeterministic(t *testing.T) {
	g1, _ := NewGenerator(1, &fakeSigner{}, 64, 10)
	g2, _ := NewGenerator(1, &fakeSigner{}, 64, 10)
	u1, _ := g1.Emit(1, 1)
	u2, _ := g2.Emit(1, 1)
	if !bytes.Equal(u1[0].Payload, u2[0].Payload) {
		t.Fatal("payloads not deterministic")
	}
	// Different streams produce different payloads.
	g3, _ := NewGenerator(2, &fakeSigner{}, 64, 10)
	u3, _ := g3.Emit(1, 1)
	if bytes.Equal(u1[0].Payload, u3[0].Payload) {
		t.Fatal("different streams share payloads")
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(1, nil, 10, 10); err == nil {
		t.Fatal("nil signer accepted")
	}
	if _, err := NewGenerator(1, &fakeSigner{}, 0, 10); err == nil {
		t.Fatal("zero payload accepted")
	}
	if _, err := NewGenerator(1, &fakeSigner{}, 10, 0); err == nil {
		t.Fatal("zero ttl accepted")
	}
}

func TestAppendCanonicalMatchesCanonicalBytes(t *testing.T) {
	u := mkUpdate(7, 12)
	prefix := []byte("kept")
	got := u.AppendCanonical(prefix)
	if !bytes.Equal(got[:4], prefix) || !bytes.Equal(got[4:], u.CanonicalBytes()) {
		t.Fatal("AppendCanonical is not dst followed by CanonicalBytes")
	}
}

// Canonical is the store's retention point: whatever it returns — the
// shared copy, a private clone of divergent content, or a clone from a nil
// interner — never aliases the caller's (message-backed) slices.
func TestCanonicalNeverAliasesInput(t *testing.T) {
	fresh := func() Update {
		u := mkUpdate(3, 9)
		u.SrcSig = []byte{1, 2, 3}
		return u
	}
	in := NewInterner()
	divergent := fresh()
	divergent.Payload = []byte{9, 9}
	for name, c := range map[string]struct {
		in *Interner
		u  Update
	}{
		"nil interner": {nil, fresh()},
		"first":        {in, fresh()},
		"later":        {in, fresh()},
		"divergent":    {in, divergent},
	} {
		want := c.u.Clone()
		got := c.in.Canonical(c.u)
		for i := range c.u.Payload {
			c.u.Payload[i] = 0xEE
		}
		for i := range c.u.SrcSig {
			c.u.SrcSig[i] = 0xEE
		}
		if !bytes.Equal(got.Payload, want.Payload) || !bytes.Equal(got.SrcSig, want.SrcSig) {
			t.Errorf("%s: Canonical's result aliases its input", name)
		}
	}
}
