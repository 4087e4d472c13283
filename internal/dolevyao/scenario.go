package dolevyao

import "fmt"

// Scenario describes the §VI-A verification setting: a correct node B
// receiving one update from each of its predecessors, with a set of
// monitors, under a coalition of corrupted predecessors and monitors.
type Scenario struct {
	// Preds is the number of predecessors (f in the paper; 3 is "the
	// simplest where the protocol can be proved secure").
	Preds int
	// Monitors is the number of monitors of B.
	Monitors int
	// Designate maps a predecessor exchange to the monitor index that
	// receives messages 6–7 for it. Defaults to i mod Monitors.
	Designate func(pred int) int
	// CorruptPreds / CorruptMons are coalition member indices.
	CorruptPreds []int
	CorruptMons  []int
	// Tags is how B's KeyResponses carry its buffermap (§V-D).
	Tags TagModel
}

// TagModel is the construction of a buffermap entry.
type TagModel int

const (
	// KeyedTags lists each owned update u as Tag{u, p}: this build's
	// keyed hash (hhash.Hasher.Tags).
	KeyedTags TagModel = iota
	// LiftedTags lists it as Hash{u, p}, the paper's H(u)_(p,M): a term
	// the attacker may also lift, which is at least what 64 bits of it
	// give away.
	LiftedTags
	// NoBufferMap sends the prime alone.
	NoBufferMap
)

// entry is the buffermap entry of u under prime; nil under NoBufferMap.
func (m TagModel) entry(u, prime Term) Term {
	switch m {
	case KeyedTags:
		return Tag{U: u, Key: prime}
	case LiftedTags:
		return Hash{U: u, Key: prime}
	}
	return nil
}

// ownedUpdates is how many updates B owns from earlier rounds: what its
// buffermaps list. They are dictionary candidates like the exchanged ones.
const ownedUpdates = 2

// Names used by the builder.
func predName(i int) string   { return fmt.Sprintf("A%d", i) }
func monName(i int) string    { return fmt.Sprintf("M%d", i) }
func primeName(i int) string  { return fmt.Sprintf("p%d", i) }
func updateName(i int) string { return fmt.Sprintf("u%d", i) }
func ownedName(i int) string  { return fmt.Sprintf("b%d", i) }

// UpdateName exposes the update naming for queries (exchange i carries
// update u<i>).
func UpdateName(i int) string { return updateName(i) }

// PrimeName exposes the prime naming for queries.
func PrimeName(i int) string { return primeName(i) }

// BuildPAGRound constructs the attacker knowledge for one PAG round under
// the scenario: the full network traffic of Figs 5–6 (global attacker)
// plus the coalition's private keys and secrets, plus the dictionary
// universe of candidate updates (§VI-A's attack precondition). Each
// KeyResponse carries B's buffermap: one entry per update B owns, built
// as sc.Tags says.
func BuildPAGRound(sc Scenario) *System {
	if sc.Designate == nil {
		sc.Designate = func(pred int) int { return pred % sc.Monitors }
	}
	s := NewAttacker()

	primes := make([]Term, sc.Preds)
	for i := 0; i < sc.Preds; i++ {
		primes[i] = Atom{Kind: KPrime, Name: primeName(i)}
	}
	fullKey := Prod{Factors: primes}
	owned := make([]Term, ownedUpdates)
	for k := range owned {
		owned[k] = Atom{Kind: KUpdate, Name: ownedName(k)}
		s.AddCandidate(ownedName(k))
	}

	for i := 0; i < sc.Preds; i++ {
		pred := predName(i)
		u := Atom{Kind: KUpdate, Name: updateName(i)}
		s.AddCandidate(u.Name)
		prime := primes[i]
		kPrev := Atom{Kind: KData, Name: "kprev_" + pred}
		att := Hash{U: u, Key: prime}
		ack := Hash{U: u, Key: kPrev}

		// Message 1: ⟨KeyRequest⟩_Ai (no secrets).
		s.Learn(Sig{By: pred, Body: []Term{Atom{Kind: KData, Name: "keyreq_" + pred}}})
		// Message 2: {⟨p_i, buffermap⟩_B}_pk(Ai).
		resp := []Term{prime}
		for _, o := range owned {
			if e := sc.Tags.entry(o, prime); e != nil {
				resp = append(resp, e)
			}
		}
		s.Learn(Enc{To: pred, Body: []Term{Sig{By: "B", Body: resp}}})
		// Message 3: {⟨u_i, K(R-1,Ai)⟩_Ai}_pk(B).
		s.Learn(Enc{To: "B", Body: []Term{Sig{By: pred, Body: []Term{u, kPrev}}}})
		// Message 4: ⟨H(u_i)_(p_i)⟩_Ai — attestation, in clear.
		s.Learn(Sig{By: pred, Body: []Term{att}})
		// Message 5/6: ⟨H(u_i)_(K(R-1,Ai))⟩_B — ack + its monitor copy.
		s.Learn(Sig{By: "B", Body: []Term{ack}})

		// Message 7: {⟨att, ∏_{k≠i} p_k⟩_B}_pk(designated monitor).
		rem := remainder(primes, i)
		d := monName(sc.Designate(i))
		s.Learn(Enc{To: d, Body: []Term{Sig{By: "B", Body: []Term{att, rem}}}})

		// Message 8: ⟨H(u_i)_(K(R,B))⟩_designated — lifted share.
		s.Learn(Sig{By: d, Body: []Term{Hash{U: u, Key: fullKey}}})
		// Message 9: relayed ack.
		s.Learn(Sig{By: d, Body: []Term{ack}})
	}

	// Coalition secrets.
	for _, i := range sc.CorruptPreds {
		pred := predName(i)
		s.Learn(Priv(pred))
		// A corrupted predecessor knows its own serve content outright.
		s.Learn(Atom{Kind: KUpdate, Name: updateName(i)})
		s.Learn(Atom{Kind: KData, Name: "kprev_" + pred})
	}
	for _, i := range sc.CorruptMons {
		s.Learn(Priv(monName(i)))
	}
	return s
}

// remainder builds ∏_{k≠i} p_k.
func remainder(primes []Term, i int) Prod {
	out := make([]Term, 0, len(primes)-1)
	for k, p := range primes {
		if k != i {
			out = append(out, p)
		}
	}
	return Prod{Factors: out}
}
