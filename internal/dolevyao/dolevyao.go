// Package dolevyao is the reproduction's substitute for the paper's
// ProVerif analysis (§VI-A): a symbolic Dolev–Yao attacker-knowledge-
// closure engine over a small term algebra modelling PAG's cryptographic
// messages.
//
// The attacker is global and active (§III): it records all network
// traffic, controls the coalition's private keys and secrets, can decrypt
// anything addressed to coalition members, divide known prime products,
// lift hashes, and run the dictionary attack of §VI-A ("the attacker has
// access to the list of updates that node B may have received ... the
// attacker would have to hash any possible combination of updates using
// the prime number"). Its only limit is that it "is not able to invert
// encryptions".
//
// The engine answers the paper's reachability question: starting from the
// traffic of one PAG round plus the coalition's secrets, can the attacker
// derive an update exchanged between two honest nodes (property P1)?
// Mirroring the ProVerif result, closure proves P1 safe for coalitions
// below the threshold and finds the known attack at the threshold
// (a corrupted designated monitor's remainder product divided by corrupted
// predecessors' primes reveals an honest exchange's prime).
package dolevyao

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies atoms.
type Kind int

// Atom kinds.
const (
	// KPrime is a prime exponent chosen by a receiver.
	KPrime Kind = iota + 1
	// KUpdate is a content chunk (dictionary candidate).
	KUpdate
	// KPriv is a node's private key.
	KPriv
	// KData is any other opaque payload.
	KData
)

// Term is a symbolic message component.
type Term interface {
	// key returns the canonical identity of the term.
	key() string
}

// Atom is an atomic secret or datum.
type Atom struct {
	Kind Kind
	Name string
}

func (a Atom) key() string { return fmt.Sprintf("atom(%d,%s)", a.Kind, a.Name) }

// Priv returns the private-key atom of a node.
func Priv(node string) Atom { return Atom{Kind: KPriv, Name: node} }

// Enc is {body}_pk(To): public-key encryption to a node.
type Enc struct {
	To   string
	Body []Term
}

func (e Enc) key() string { return "enc(" + e.To + "," + keyList(e.Body) + ")" }

// Sig is ⟨body⟩_By: a signature. Dolev–Yao signatures do not hide their
// content: anyone observing the message reads the body.
type Sig struct {
	By   string
	Body []Term
}

func (s Sig) key() string { return "sig(" + s.By + "," + keyList(s.Body) + ")" }

// Hash is H(U)_(Key,M): the homomorphic hash. Anyone holding it can lift
// it by an exponent it knows: H(U)_(K) becomes H(U)_(K·m).
type Hash struct {
	U   Term
	Key Term
}

func (h Hash) key() string { return "hash(" + h.U.key() + "," + h.Key.key() + ")" }

// Tag is a keyed hash of U under Key: the buffermap entry as this build
// computes it (hhash.Hasher.Tags). It neither decomposes nor lifts. The
// attacker holds one only by observing it, or by building it from U and
// Key when it has both: the dictionary rule.
type Tag struct {
	U   Term
	Key Term
}

func (t Tag) key() string { return "tag(" + t.U.key() + "," + t.Key.key() + ")" }

// Prod is a commutative product of factors (prime products K and remainder
// products, or products of updates).
type Prod struct {
	Factors []Term
}

func (p Prod) key() string {
	ks := make([]string, len(p.Factors))
	for i, f := range p.Factors {
		ks[i] = f.key()
	}
	sort.Strings(ks)
	return "prod(" + strings.Join(ks, ",") + ")"
}

func keyList(ts []Term) string {
	ks := make([]string, len(ts))
	for i, t := range ts {
		ks[i] = t.key()
	}
	return strings.Join(ks, ";")
}

// System is the attacker's knowledge base.
type System struct {
	known map[string]Term
	// candidates is the dictionary universe of update atoms (§VI-A).
	candidates map[string]bool
}

// NewAttacker creates an empty knowledge base.
func NewAttacker() *System {
	return &System{
		known:      make(map[string]Term),
		candidates: make(map[string]bool),
	}
}

// Learn adds a term to the knowledge base (traffic observation or
// coalition secret).
func (s *System) Learn(t Term) { s.known[t.key()] = t }

// AddCandidate registers an update name in the dictionary universe.
func (s *System) AddCandidate(name string) { s.candidates[name] = true }

// Knows reports whether the exact term is currently derivable. Call Close
// first to saturate.
func (s *System) Knows(t Term) bool {
	_, ok := s.known[t.key()]
	return ok
}

// KnowsUpdate reports whether the attacker derived the named update.
func (s *System) KnowsUpdate(name string) bool {
	return s.Knows(Atom{Kind: KUpdate, Name: name})
}

// KnowsPrime reports whether the attacker derived the named prime.
func (s *System) KnowsPrime(name string) bool {
	return s.Knows(Atom{Kind: KPrime, Name: name})
}

// Size returns the number of known terms (for diagnostics).
func (s *System) Size() int { return len(s.known) }

// Close saturates the knowledge base under the derivation rules.
func (s *System) Close() {
	for {
		if !s.step() {
			return
		}
	}
}

// step applies every rule once; reports whether anything new was learnt.
func (s *System) step() bool {
	grew := false
	add := func(t Term) {
		if _, ok := s.known[t.key()]; !ok {
			s.known[t.key()] = t
			grew = true
		}
	}

	snapshot := make([]Term, 0, len(s.known))
	for _, t := range s.known {
		snapshot = append(snapshot, t)
	}

	for _, t := range snapshot {
		switch v := t.(type) {
		case Sig:
			// Signatures are readable by anyone.
			for _, part := range v.Body {
				add(part)
			}
		case Enc:
			// Decryption requires the recipient's private key.
			if s.Knows(Priv(v.To)) {
				for _, part := range v.Body {
					add(part)
				}
			}
		case Prod:
			// Division: a product with exactly one unknown factor
			// reveals it (monitors "are not able to factorise it"
			// outright, §IV-B — but dividing out known primes is
			// elementary arithmetic).
			unknown := -1
			for i, f := range v.Factors {
				if !s.Knows(f) {
					if unknown >= 0 {
						unknown = -2
						break
					}
					unknown = i
				}
			}
			if unknown >= 0 {
				add(v.Factors[unknown])
			}
		case Hash:
			s.dictionary(v.U, v.Key, add)
			// Lift: raise the hash by every exponent the attacker
			// holds whose primes the key does not already carry
			// (a repeated factor gives a key no one ever uses, and
			// leaving it out keeps the closure finite).
			for _, m := range snapshot {
				if f, ok := exponentFactors(m); ok {
					if k, ok := liftKey(v.Key, f); ok {
						add(Hash{U: v.U, Key: k})
					}
				}
			}
		case Tag:
			s.dictionary(v.U, v.Key, add)
		}
	}
	return grew
}

// dictionary is the attack of §VI-A on a hash or tag of u under key: with
// the key in hand, hash every candidate combination and compare. Modelled
// as: key derivable → the update factors drawn from the candidate universe
// become known.
func (s *System) dictionary(u, key Term, add func(Term)) {
	if !s.keyDerivable(key) {
		return
	}
	for _, f := range hashFactors(u) {
		if a, ok := f.(Atom); ok && a.Kind == KUpdate && s.candidates[a.Name] {
			add(a)
		}
	}
}

// exponentFactors returns the primes of a known term usable as a lift
// exponent: a prime, or a product of primes.
func exponentFactors(t Term) ([]Term, bool) {
	switch v := t.(type) {
	case Atom:
		return []Term{v}, v.Kind == KPrime
	case Prod:
		for _, f := range v.Factors {
			if a, ok := f.(Atom); !ok || a.Kind != KPrime {
				return nil, false
			}
		}
		return v.Factors, true
	}
	return nil, false
}

// liftKey returns the key of a hash under key lifted by the primes m;
// false when m shares a factor with key.
func liftKey(key Term, m []Term) (Term, bool) {
	factors := []Term{key}
	if p, ok := key.(Prod); ok {
		factors = p.Factors
	}
	out := append([]Term(nil), factors...)
	for _, f := range m {
		for _, g := range factors {
			if f.key() == g.key() {
				return nil, false
			}
		}
		out = append(out, f)
	}
	return Prod{Factors: out}, true
}

// keyDerivable reports whether a hash key (atom or product) is fully known.
func (s *System) keyDerivable(k Term) bool {
	switch v := k.(type) {
	case Atom:
		return s.Knows(v)
	case Prod:
		if s.Knows(v) {
			// Knowing the product value alone does not allow the
			// dictionary attack unless every factor is known (the
			// attacker must hash candidates under the same
			// exponent, which requires the factors' values —
			// except that the full product value itself *can* be
			// used as an exponent directly).
			return true
		}
		for _, f := range v.Factors {
			if !s.Knows(f) {
				return false
			}
		}
		return true
	default:
		return s.Knows(k)
	}
}

// hashFactors flattens the hashed content into its update components.
func hashFactors(u Term) []Term {
	if p, ok := u.(Prod); ok {
		return p.Factors
	}
	return []Term{u}
}
