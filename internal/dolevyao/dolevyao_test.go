package dolevyao

import (
	"fmt"
	"strings"
	"testing"
)

// designateM0 sends every report to monitor 0: the worst case.
func designateM0(int) int { return 0 }

// roundScenarios is every Scenario the tests of this file build, by name.
var roundScenarios = []struct {
	name string
	sc   Scenario
}{
	{"passive global attacker", Scenario{Preds: 3, Monitors: 3}},
	{"one monitor alone", Scenario{Preds: 3, Monitors: 3, CorruptMons: []int{0}}},
	{"all monitors alone", Scenario{Preds: 3, Monitors: 3, CorruptMons: []int{0, 1, 2}}},
	{"one predecessor alone", Scenario{Preds: 3, Monitors: 3, CorruptPreds: []int{1}}},
	{"all other predecessors, no monitor", Scenario{Preds: 3, Monitors: 3, CorruptPreds: []int{1, 2}}},
	// f=3: target exchange 0 (honest A0). Pivot exchange 1: its
	// designated monitor M0 is corrupted (remainder p0·p2), and A2 is
	// corrupted (knows p2). Division yields p0; dictionary yields u0.
	{"threshold", Scenario{Preds: 3, Monitors: 3, Designate: designateM0,
		CorruptPreds: []int{2}, CorruptMons: []int{0}}},
	// M0 is designated only for exchange 0 (the target's own): its
	// remainder p1·p2 contains no p0. With A2 corrupted, division
	// reveals p1 — exchange 1 leaks, exchange 0 stays private.
	{"unhelpful designation", Scenario{Preds: 3, Monitors: 3,
		Designate: func(pred int) int {
			if pred == 0 {
				return 0
			}
			return 1 // other exchanges reported to honest M1
		},
		CorruptPreds: []int{2}, CorruptMons: []int{0}}},
	{"f=5, f=3-sized coalition", Scenario{Preds: 5, Monitors: 5, Designate: designateM0,
		CorruptPreds: []int{4}, CorruptMons: []int{0}}},
	// The attack returns once all predecessors outside {target, pivot}
	// collude: preds {2,3,4} + monitor, pivot exchange 1.
	{"f=5, full coalition", Scenario{Preds: 5, Monitors: 5, Designate: designateM0,
		CorruptPreds: []int{2, 3, 4}, CorruptMons: []int{0}}},
}

// named returns the scenario of roundScenarios called name.
func named(t *testing.T, name string) Scenario {
	t.Helper()
	for _, c := range roundScenarios {
		if c.name == name {
			return c.sc
		}
	}
	t.Fatalf("no scenario %q", name)
	return Scenario{}
}

// attack builds, saturates and queries one scenario.
func attack(t *testing.T, sc Scenario, target int) bool {
	t.Helper()
	s := BuildPAGRound(sc)
	s.Close()
	return s.KnowsUpdate(UpdateName(target))
}

// TestCase1PassiveGlobalAttacker is the paper's case (1): the attacker
// listens to all communications and can replay/inject, but controls no
// node. "ProVerif proves that no attack exists" — and neither does our
// closure find one: no update and no prime is derivable.
func TestCase1PassiveGlobalAttacker(t *testing.T) {
	s := BuildPAGRound(named(t, "passive global attacker"))
	s.Close()
	for i := 0; i < 3; i++ {
		if s.KnowsUpdate(UpdateName(i)) {
			t.Fatalf("passive attacker derived update %d", i)
		}
		if s.KnowsPrime(PrimeName(i)) {
			t.Fatalf("passive attacker derived prime %d", i)
		}
	}
}

// TestCase2BelowThreshold is case (2) below the threshold: coalitions of
// fewer nodes than needed cannot break the honest exchange A0→B.
func TestCase2BelowThreshold(t *testing.T) {
	for _, name := range []string{
		"one monitor alone",
		"all monitors alone",
		"one predecessor alone",
		"all other predecessors, no monitor",
	} {
		t.Run(name, func(t *testing.T) {
			if attack(t, named(t, name), 0) {
				t.Fatal("coalition below threshold broke P1")
			}
		})
	}
}

// TestCase2AttackAtThreshold reproduces the attack ProVerif finds: a
// corrupted monitor holding the remainder product of a corrupted
// predecessor's exchange, with every predecessor outside {target, pivot}
// corrupted, reveals the honest exchange's prime and then — by the §VI-A
// dictionary attack — the update itself.
func TestCase2AttackAtThreshold(t *testing.T) {
	s := BuildPAGRound(named(t, "threshold"))
	s.Close()
	if !s.KnowsPrime(PrimeName(0)) {
		t.Fatal("threshold coalition failed to derive the prime")
	}
	if !s.KnowsUpdate(UpdateName(0)) {
		t.Fatal("threshold coalition failed the dictionary attack")
	}
}

// TestDesignationMatters: the same coalition without the helpful
// designation cannot reach the target exchange — but leaks the exchange
// whose remainder it can fully divide.
func TestDesignationMatters(t *testing.T) {
	s := BuildPAGRound(named(t, "unhelpful designation"))
	s.Close()
	if s.KnowsUpdate(UpdateName(0)) {
		t.Fatal("target exchange leaked despite unhelpful designation")
	}
	if !s.KnowsUpdate(UpdateName(1)) {
		t.Fatal("divisible remainder should have leaked exchange 1")
	}
}

// TestLargerFanoutNeedsLargerCoalition: with f=5, the f=3 threshold
// coalition is no longer sufficient ("Increasing the value of f
// reinforces the security of the protocol", §VI-A).
func TestLargerFanoutNeedsLargerCoalition(t *testing.T) {
	if attack(t, named(t, "f=5, f=3-sized coalition"), 0) {
		t.Fatal("f=3-sized coalition broke an f=5 system")
	}
	if !attack(t, named(t, "f=5, full coalition"), 0) {
		t.Fatal("full coalition failed against f=5")
	}
}

// confirms reports whether the attacker can confirm the hash or tag t:
// it holds t, and it can rebuild t from a derivable key and updates it
// knows or has as candidates (§VI-A's dictionary). For a buffermap entry
// that is a membership test: the attacker learns that the entry's owner
// holds those updates. Call Close first.
func (s *System) confirms(t Term) bool {
	var u, key Term
	switch v := t.(type) {
	case Hash:
		u, key = v.U, v.Key
	case Tag:
		u, key = v.U, v.Key
	default:
		return false
	}
	if !s.Knows(t) || !s.keyDerivable(key) {
		return false
	}
	for _, f := range hashFactors(u) {
		if a, ok := f.(Atom); !s.Knows(f) && !(ok && a.Kind == KUpdate && s.candidates[a.Name]) {
			return false
		}
	}
	return true
}

// learnsMember reports whether the closed attacker s of BuildPAGRound(sc)
// learns that B's buffermap lists the update name: it can confirm the
// entry for name in one of B's KeyResponses.
func learnsMember(s *System, sc Scenario, name string) bool {
	u := Atom{Kind: KUpdate, Name: name}
	for i := 0; i < sc.Preds; i++ {
		if e := sc.Tags.entry(u, Atom{Kind: KPrime, Name: primeName(i)}); e != nil && s.confirms(e) {
			return true
		}
	}
	return false
}

// TestBufferMapModels is the privacy check on the keyed buffermap tag:
// every scenario above, with KeyResponses that carry no buffermap, the
// paper's liftable H(u)_(p,M) entries, and this build's keyed tags.
//   - P1 (which exchanged updates and primes the coalition derives) is
//     the same under all three.
//   - "The coalition learns u ∈ buffermap(B)" is the same under both tag
//     models: true for every update B owns exactly when the coalition
//     holds a predecessor's key or derives a prime, false otherwise.
//     (Primes are only ever derived with a predecessor's key in hand.)
//   - A candidate B does not own is never learnt as a member. (Under the
//     lifted model, an exchanged u_i's entry under p_i is its attestation,
//     so only a candidate that no message carries tests this.)
func TestBufferMapModels(t *testing.T) {
	for _, c := range roundScenarios {
		t.Run(c.name, func(t *testing.T) {
			p1 := map[TagModel]string{}
			for _, m := range []TagModel{NoBufferMap, LiftedTags, KeyedTags} {
				sc := c.sc
				sc.Tags = m
				s := BuildPAGRound(sc)
				s.AddCandidate("unowned")
				s.Close()
				var b strings.Builder
				derivesPrime := false
				for i := 0; i < sc.Preds; i++ {
					fmt.Fprintf(&b, "%s:%v %s:%v ", UpdateName(i), s.KnowsUpdate(UpdateName(i)),
						PrimeName(i), s.KnowsPrime(PrimeName(i)))
					derivesPrime = derivesPrime || s.KnowsPrime(PrimeName(i))
				}
				p1[m] = b.String()
				if p1[m] != p1[NoBufferMap] {
					t.Errorf("model %d: P1 answers %s, without a buffermap %s", m, p1[m], p1[NoBufferMap])
				}
				want := m != NoBufferMap && (len(sc.CorruptPreds) > 0 || derivesPrime)
				for k := 0; k < ownedUpdates; k++ {
					if got := learnsMember(s, sc, ownedName(k)); got != want {
						t.Errorf("model %d: learns %s ∈ buffermap(B) = %v, want %v", m, ownedName(k), got, want)
					}
				}
				if learnsMember(s, sc, "unowned") {
					t.Errorf("model %d: learns a candidate B does not own is in its buffermap", m)
				}
			}
		})
	}
}

// TestLiftedHashes: a hash is raised by a prime or prime product the
// attacker holds, never twice by one prime; a keyed tag never lifts.
func TestLiftedHashes(t *testing.T) {
	u := Atom{Kind: KUpdate, Name: "u"}
	p := Atom{Kind: KPrime, Name: "p"}
	q := Atom{Kind: KPrime, Name: "q"}
	r := Atom{Kind: KPrime, Name: "r"}
	s := NewAttacker()
	s.Learn(Hash{U: u, Key: p})
	s.Learn(Tag{U: u, Key: p})
	s.Learn(q)
	s.Learn(Prod{Factors: []Term{q, r}})
	s.Close()
	for _, want := range []Term{
		Hash{U: u, Key: Prod{Factors: []Term{p, q}}},
		Hash{U: u, Key: Prod{Factors: []Term{p, q, r}}},
	} {
		if !s.Knows(want) {
			t.Errorf("did not lift to %s", want.key())
		}
	}
	for _, never := range []Term{
		Hash{U: u, Key: Prod{Factors: []Term{p, q, q}}},
		Tag{U: u, Key: Prod{Factors: []Term{p, q}}},
	} {
		if s.Knows(never) {
			t.Errorf("derived %s", never.key())
		}
	}
	if s.confirms(Tag{U: u, Key: p}) {
		t.Error("confirmed a tag without its key")
	}
	s.AddCandidate("u")
	s.Learn(p)
	s.Close()
	if !s.confirms(Tag{U: u, Key: p}) || !s.Knows(u) {
		t.Error("the dictionary did not confirm a candidate's tag under a known key")
	}
}

// TestEncryptionBlocksDecomposition: ciphertexts to honest nodes stay
// opaque ("the only limitation of the global and active opponent is that
// it is not able to invert encryptions", §III).
func TestEncryptionBlocksDecomposition(t *testing.T) {
	s := NewAttacker()
	secret := Atom{Kind: KData, Name: "secret"}
	s.Learn(Enc{To: "honest", Body: []Term{secret}})
	s.Close()
	if s.Knows(secret) {
		t.Fatal("encryption inverted")
	}
	// With the recipient's key, it opens.
	s.Learn(Priv("honest"))
	s.Close()
	if !s.Knows(secret) {
		t.Fatal("legitimate decryption failed")
	}
}

// TestSignaturesDoNotHide: signed content is readable.
func TestSignaturesDoNotHide(t *testing.T) {
	s := NewAttacker()
	content := Atom{Kind: KData, Name: "public"}
	s.Learn(Sig{By: "X", Body: []Term{content}})
	s.Close()
	if !s.Knows(content) {
		t.Fatal("signature hid its content")
	}
}

// TestDivisionNeedsAllButOne: a product with two unknown factors is
// opaque ("predecessors and monitors of a node receive the product of
// prime numbers, and are not able to factorise it", §IV-B).
func TestDivisionNeedsAllButOne(t *testing.T) {
	p1 := Atom{Kind: KPrime, Name: "x1"}
	p2 := Atom{Kind: KPrime, Name: "x2"}
	p3 := Atom{Kind: KPrime, Name: "x3"}

	s := NewAttacker()
	s.Learn(Prod{Factors: []Term{p1, p2, p3}})
	s.Learn(p3)
	s.Close()
	if s.Knows(p1) || s.Knows(p2) {
		t.Fatal("factored a two-unknown product")
	}
	s.Learn(p2)
	s.Close()
	if !s.Knows(p1) {
		t.Fatal("division with one unknown failed")
	}
}

// TestDictionaryNeedsKey: the observed hash plus the candidate list is
// not enough without the prime (§VI-A's "not really practical" case is
// modelled as impossible without the exponent).
func TestDictionaryNeedsKey(t *testing.T) {
	u := Atom{Kind: KUpdate, Name: "u"}
	p := Atom{Kind: KPrime, Name: "p"}
	s := NewAttacker()
	s.AddCandidate("u")
	s.Learn(Hash{U: u, Key: p})
	s.Close()
	if s.Knows(u) {
		t.Fatal("dictionary attack without the key")
	}
	s.Learn(p)
	s.Close()
	if !s.Knows(u) {
		t.Fatal("dictionary attack with the key failed")
	}
}

// TestDictionaryNeedsCandidate: an update outside the candidate universe
// cannot be recovered even with the key (hash preimage resistance).
func TestDictionaryNeedsCandidate(t *testing.T) {
	u := Atom{Kind: KUpdate, Name: "offlist"}
	p := Atom{Kind: KPrime, Name: "p"}
	s := NewAttacker()
	s.Learn(Hash{U: u, Key: p})
	s.Learn(p)
	s.Close()
	if s.Knows(u) {
		t.Fatal("recovered a non-candidate update")
	}
}

// TestProductKeyDictionary: a hash under a product key falls to the
// dictionary once every factor is known.
func TestProductKeyDictionary(t *testing.T) {
	u := Atom{Kind: KUpdate, Name: "u"}
	p1 := Atom{Kind: KPrime, Name: "p1"}
	p2 := Atom{Kind: KPrime, Name: "p2"}
	s := NewAttacker()
	s.AddCandidate("u")
	s.Learn(Hash{U: Prod{Factors: []Term{u}}, Key: Prod{Factors: []Term{p1, p2}}})
	s.Learn(p1)
	s.Close()
	if s.Knows(u) {
		t.Fatal("partial key sufficed")
	}
	s.Learn(p2)
	s.Close()
	if !s.Knows(u) {
		t.Fatal("full key dictionary failed")
	}
}

func TestSystemSize(t *testing.T) {
	s := NewAttacker()
	if s.Size() != 0 {
		t.Fatal("fresh attacker knows something")
	}
	s.Learn(Atom{Kind: KData, Name: "x"})
	s.Learn(Atom{Kind: KData, Name: "x"}) // dedup
	if s.Size() != 1 {
		t.Fatalf("Size = %d", s.Size())
	}
}

func TestCanonicalKeysCommutative(t *testing.T) {
	a := Atom{Kind: KPrime, Name: "a"}
	b := Atom{Kind: KPrime, Name: "b"}
	p1 := Prod{Factors: []Term{a, b}}
	p2 := Prod{Factors: []Term{b, a}}
	if p1.key() != p2.key() {
		t.Fatal("product keys not commutative")
	}
}
