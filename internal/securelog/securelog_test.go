package securelog

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/pki"
)

func TestAppendAndChain(t *testing.T) {
	l := New(1)
	if l.Owner() != 1 || l.Len() != 0 || l.HeadSeq() != 0 {
		t.Fatal("fresh log state wrong")
	}
	e1 := l.Append(1, EntryRecv, 2, []byte("u1"))
	e2 := l.Append(1, EntrySend, 3, []byte("u1"))
	if e1.Seq != 1 || e2.Seq != 2 {
		t.Fatalf("seqs %d %d", e1.Seq, e2.Seq)
	}
	if l.Head() != e2.Hash {
		t.Fatal("head not the latest entry hash")
	}
	if err := VerifyChain(0, [HashSize]byte{}, l.Since(0)); err != nil {
		t.Fatalf("VerifyChain on honest log: %v", err)
	}
}

func TestSinceSuffix(t *testing.T) {
	l := New(1)
	for i := 0; i < 5; i++ {
		l.Append(model.Round(i), EntryRecv, 2, []byte{byte(i)})
	}
	suffix := l.Since(3)
	if len(suffix) != 2 || suffix[0].Seq != 4 {
		t.Fatalf("suffix %v", suffix)
	}
	// Suffix verifies against the base hash at seq 3.
	base, ok := l.EntryAt(3)
	if !ok {
		t.Fatal("EntryAt(3) missing")
	}
	if err := VerifyChain(3, base.Hash, suffix); err != nil {
		t.Fatalf("suffix verification: %v", err)
	}
}

func TestEntryAtBounds(t *testing.T) {
	l := New(1)
	l.Append(1, EntryRecv, 2, nil)
	if _, ok := l.EntryAt(0); ok {
		t.Fatal("seq 0 exists")
	}
	if _, ok := l.EntryAt(2); ok {
		t.Fatal("seq 2 exists")
	}
	if _, ok := l.EntryAt(1); !ok {
		t.Fatal("seq 1 missing")
	}
}

func TestSinceReturnsCopies(t *testing.T) {
	l := New(1)
	l.Append(1, EntryRecv, 2, []byte("abc"))
	got := l.Since(0)
	got[0].Content[0] = 'Z'
	if string(l.Since(0)[0].Content) != "abc" {
		t.Fatal("Since aliases log content")
	}
}

func TestTamperDetection(t *testing.T) {
	l := New(1)
	l.Append(1, EntryRecv, 2, []byte("received u1"))
	l.Append(1, EntrySend, 3, []byte("sent u1"))
	l.Append(2, EntrySend, 4, []byte("sent u1"))

	// A selfish node rewrites history: claims it sent something else.
	if !l.Tamper(2, []byte("sent u1,u2")) {
		t.Fatal("Tamper failed")
	}
	err := VerifyChain(0, [HashSize]byte{}, l.Since(0))
	if err == nil {
		t.Fatal("tampered log verified")
	}
}

func TestTamperOutOfRange(t *testing.T) {
	l := New(1)
	if l.Tamper(1, nil) {
		t.Fatal("tampering empty log succeeded")
	}
}

func TestVerifyChainSeqGap(t *testing.T) {
	l := New(1)
	l.Append(1, EntryRecv, 2, []byte("a"))
	l.Append(1, EntryRecv, 2, []byte("b"))
	l.Append(1, EntryRecv, 2, []byte("c"))
	entries := l.Since(0)
	// Drop the middle entry: omission must be detected.
	gapped := []Entry{entries[0], entries[2]}
	if err := VerifyChain(0, [HashSize]byte{}, gapped); err == nil {
		t.Fatal("omitted entry went undetected")
	}
}

func TestChainHashPropertyDistinct(t *testing.T) {
	f := func(c1, c2 []byte) bool {
		if string(c1) == string(c2) {
			return true
		}
		l1, l2 := New(1), New(1)
		e1 := l1.Append(1, EntryRecv, 2, c1)
		e2 := l2.Append(1, EntryRecv, 2, c2)
		return e1.Hash != e2.Hash
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAuthenticator(t *testing.T) {
	suite := pki.NewFastSuite()
	id, err := suite.NewIdentity(1)
	if err != nil {
		t.Fatal(err)
	}
	l := New(1)
	l.Append(1, EntryRecv, 2, []byte("u1"))

	a, err := l.Authenticate(id)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seq != 1 || a.Node != 1 {
		t.Fatalf("authenticator %+v", a)
	}
	if err := VerifyAuthenticator(suite, a); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Forged head must fail.
	a.Head[0] ^= 1
	if err := VerifyAuthenticator(suite, a); err == nil {
		t.Fatal("forged authenticator verified")
	}
}

func TestForkDetection(t *testing.T) {
	suite := pki.NewFastSuite()
	id, _ := suite.NewIdentity(1)

	// The node presents one history to auditor X...
	l1 := New(1)
	l1.Append(1, EntrySend, 2, []byte("sent u1"))
	a1, _ := l1.Authenticate(id)

	// ...and a different history to auditor Y (equivocation).
	l2 := New(1)
	l2.Append(1, EntrySend, 2, []byte("sent nothing"))
	a2, _ := l2.Authenticate(id)

	if err := CheckFork(a1, a2); !errors.Is(err, ErrFork) {
		t.Fatalf("fork not detected: %v", err)
	}

	// Same history: no fork.
	a3, _ := l1.Authenticate(id)
	if err := CheckFork(a1, a3); err != nil {
		t.Fatalf("false fork: %v", err)
	}

	// Different nodes cannot be compared.
	a4 := a2
	a4.Node = 9
	if err := CheckFork(a1, a4); err == nil || errors.Is(err, ErrFork) {
		t.Fatalf("cross-node comparison: %v", err)
	}
}

func TestForkDifferentSeqNoConflict(t *testing.T) {
	suite := pki.NewFastSuite()
	id, _ := suite.NewIdentity(1)
	l := New(1)
	l.Append(1, EntrySend, 2, []byte("a"))
	a1, _ := l.Authenticate(id)
	l.Append(1, EntrySend, 3, []byte("b"))
	a2, _ := l.Authenticate(id)
	if err := CheckFork(a1, a2); err != nil {
		t.Fatalf("prefix authenticators flagged as fork: %v", err)
	}
}

func TestEntryTypeString(t *testing.T) {
	if EntryRecv.String() != "RCV" || EntrySend.String() != "SND" {
		t.Fatal("entry type strings wrong")
	}
	if EntryType(9).String() == "" {
		t.Fatal("unknown type should still print")
	}
}

// appendN appends n entries whose content is their index.
func appendN(l *Log, from, n int) {
	for i := from; i < from+n; i++ {
		l.Append(model.Round(i/4+1), EntryType(i%2+1), model.NodeID(i%5+2), []byte{byte(i), byte(i >> 8)})
	}
}

func TestTruncateKeepsHeadAndChain(t *testing.T) {
	l := New(1)
	appendN(l, 0, 20)
	head, headSeq := l.Head(), l.HeadSeq()
	base, _ := l.EntryAt(7)

	l.TruncateThrough(7)
	if l.Head() != head || l.HeadSeq() != headSeq {
		t.Fatal("truncation moved the head")
	}
	if l.Base() != 7 || l.BaseHash() != base.Hash || l.BaseRound() != base.Round || l.Len() != 13 {
		t.Fatalf("base %d %x round %v, %d retained", l.Base(), l.BaseHash(), l.BaseRound(), l.Len())
	}
	if err := VerifyChain(l.Base(), l.BaseHash(), l.Since(l.Base())); err != nil {
		t.Fatalf("retained suffix does not chain from the base: %v", err)
	}
	if got := l.Since(0); len(got) != 13 || got[0].Seq != 8 {
		t.Fatalf("Since below the base returned %d entries", len(got))
	}

	// Appends continue the chain from the head, and a truncation through
	// the head leaves an empty log whose head is the base.
	appendN(l, 20, 3)
	if err := VerifyChain(7, base.Hash, l.Since(0)); err != nil {
		t.Fatalf("appends after truncation: %v", err)
	}
	head, headSeq = l.Head(), l.HeadSeq()
	l.TruncateThrough(headSeq + 10) // capped at the head
	if l.Len() != 0 || l.Base() != headSeq || l.Head() != head || l.HeadSeq() != headSeq {
		t.Fatalf("truncating through the head: base %d, %d retained", l.Base(), l.Len())
	}
	e := l.Append(9, EntrySend, 3, []byte("next"))
	if e.Seq != headSeq+1 || VerifyChain(headSeq, head, l.Since(0)) != nil {
		t.Fatal("append to an emptied log does not chain from the base")
	}
}

func TestBelowBaseIsGone(t *testing.T) {
	l := New(1)
	appendN(l, 0, 10)
	l.TruncateThrough(4)
	l.TruncateThrough(2) // at or below the base: a no-op
	if l.Base() != 4 || l.Len() != 6 {
		t.Fatalf("base %d, %d retained", l.Base(), l.Len())
	}
	for seq := uint64(0); seq <= 4; seq++ {
		if _, ok := l.EntryAt(seq); ok {
			t.Fatalf("EntryAt(%d) below the base", seq)
		}
		if l.Tamper(seq, []byte("x")) {
			t.Fatalf("Tamper(%d) below the base", seq)
		}
	}
	if _, ok := l.EntryAt(5); !ok || !l.Tamper(5, []byte("x")) {
		t.Fatal("first retained entry unreachable")
	}
	if VerifyChain(l.Base(), l.BaseHash(), l.Since(l.Base())) == nil {
		t.Fatal("tampering the first retained entry went undetected")
	}
}

func TestTruncateAllocatesNothing(t *testing.T) {
	l := New(1)
	appendN(l, 0, 400)
	seq := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seq += 3
		l.TruncateThrough(seq)
	})
	if allocs != 0 {
		t.Fatalf("TruncateThrough allocated %.1f times per call", allocs)
	}

	// A log truncated as fast as it grows stops regrowing its array.
	l = New(1)
	var capAt100 int
	for i := 0; i < 1000; i++ {
		appendN(l, 10*i, 10)
		l.TruncateThrough(l.HeadSeq() - 20)
		if i == 100 {
			capAt100 = cap(l.entries)
		}
	}
	if cap(l.entries) != capAt100 {
		t.Fatalf("steady-state log regrew its array: cap %d at step 100, %d at 1000", capAt100, cap(l.entries))
	}
}

// TestTruncateInterleavingMatchesFullLog: whatever a seeded random mix of
// appends and truncations leaves is entry for entry the same suffix of a
// log that was never truncated.
func TestTruncateInterleavingMatchesFullLog(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := &model.SplitMix64{State: seed}
		l, full := New(1), New(1)
		next := 0
		for step := 0; step < 300; step++ {
			if rng.Next()%3 == 0 {
				l.TruncateThrough(l.Base() + rng.Next()%uint64(l.Len()+2))
				continue
			}
			k := int(rng.Next()%4) + 1
			appendN(l, next, k)
			appendN(full, next, k)
			next += k
		}
		if l.Head() != full.Head() || l.HeadSeq() != full.HeadSeq() {
			t.Fatalf("seed %d: heads diverge", seed)
		}
		got, want := l.Since(0), full.Since(l.Base())
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d retained, full log has %d past the base", seed, len(got), len(want))
		}
		for i := range got {
			if got[i].Seq != want[i].Seq || got[i].Hash != want[i].Hash || string(got[i].Content) != string(want[i].Content) {
				t.Fatalf("seed %d: entry %d differs", seed, got[i].Seq)
			}
		}
		if b, ok := full.EntryAt(l.Base()); l.Base() > 0 && (!ok || b.Hash != l.BaseHash() || b.Round != l.BaseRound()) {
			t.Fatalf("seed %d: base %d does not match the full log's entry", seed, l.Base())
		}
	}
}

// TestChainHashMatchesReference: each appended entry's hash is
// SHA-256(prev ‖ seq ‖ round ‖ type ‖ peer ‖ len(content) ‖ content),
// big-endian, computed here in one call over the concatenation.
func TestChainHashMatchesReference(t *testing.T) {
	l := New(1)
	var prev [HashSize]byte
	for i, content := range []string{"", "u1", "a longer content of several words"} {
		e := l.Append(model.Round(i+3), EntrySend, model.NodeID(9-i), []byte(content))
		pre := append([]byte(nil), prev[:]...)
		pre = binary.BigEndian.AppendUint64(pre, e.Seq)
		pre = binary.BigEndian.AppendUint64(pre, uint64(e.Round))
		pre = append(pre, byte(e.Type))
		pre = binary.BigEndian.AppendUint32(pre, uint32(e.Peer))
		pre = binary.BigEndian.AppendUint32(pre, uint32(len(content)))
		pre = append(pre, content...)
		if want := sha256.Sum256(pre); e.Hash != want {
			t.Fatalf("entry %d: hash %x, want %x", e.Seq, e.Hash, want)
		}
		prev = e.Hash
	}
}

// TestVerifyChainAllocationsFlat: one digest hashes the whole suffix, so
// checking 100 entries allocates what checking one does.
func TestVerifyChainAllocationsFlat(t *testing.T) {
	l := New(1)
	appendN(l, 0, 100)
	all := l.Since(0)
	one := testing.AllocsPerRun(50, func() {
		if VerifyChain(0, [HashSize]byte{}, all[:1]) != nil {
			t.Fatal("honest chain rejected")
		}
	})
	hundred := testing.AllocsPerRun(50, func() {
		if VerifyChain(0, [HashSize]byte{}, all) != nil {
			t.Fatal("honest chain rejected")
		}
	})
	if one != hundred {
		t.Fatalf("VerifyChain allocates %.1f times for 1 entry, %.1f for 100", one, hundred)
	}
}

// TestAppendAllocatesOnlyContent: once the log's array has room, an append
// allocates its content copy and nothing else — not a digest, a header or
// a sum per entry.
func TestAppendAllocatesOnlyContent(t *testing.T) {
	l := New(1)
	appendN(l, 0, 400)
	l.TruncateThrough(l.HeadSeq()) // keep the array's room
	content := []byte("content")
	allocs := testing.AllocsPerRun(100, func() {
		l.Append(7, EntrySend, 2, content)
	})
	if allocs != 1 {
		t.Fatalf("Append allocated %.1f times per call, want 1 (the content copy)", allocs)
	}
}
