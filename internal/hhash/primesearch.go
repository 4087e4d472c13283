package hhash

// The composite prefilter of the prime search. pregenPrime (prime.go) draws
// candidates and accepts the first one big.Int.ProbablyPrime(1) accepts;
// almost every candidate is composite, and ProbablyPrime pays a 607-word
// math/rand seeding plus a heap of temporaries to say so. The two stages
// here say it first, on the raw limbs, with no allocation:
//
//  1. trial division by the small primes, packed into word-sized products
//     so that one pass over the limbs tests a dozen primes;
//  2. a base-2 strong-probable-prime test on a Montgomery context built
//     for the candidate alone. R mod n comes from a negation and a few
//     doublings and multiplying by 2 is a modular doubling, so the context
//     needs no R² and the test no division: it is squarings only.
//
// Both stages reject composites only, and ProbablyPrime(1) itself runs
// the trial division of stage 1 (up to 53) and the base-2 round of stage
// 2, so a candidate it would accept survives both. The one gap is a
// composite with a factor between 59 and smallPrimeLimit that passes a
// random-base Miller-Rabin round, the base-2 round and the Lucas test: a
// Baillie-PSW pseudoprime, of which none is known and none exists below
// 2⁶⁴. The accepted candidate, and so the prime sequence of a stream, is
// what it was without the prefilter.

import "math/bits"

// smallPrimeLimit bounds the trial-division primes. At 512 bits a base-2
// test costs ~500 squarings (~60 µs) and a packed word ~8 divisions, so
// primes into the low thousands still pay for themselves; narrower
// candidates use a prefix of the table (trialWords).
const smallPrimeLimit = 2048

// primeWord is one packed trial divisor: the product of consecutive odd
// primes that fits a word. spInv/spLim[first:first+n] test the remainder
// for each of its primes without dividing (r is a multiple of odd p iff
// r·p⁻¹ mod 2^W <= (2^W-1)/p).
type primeWord struct {
	prod     uint
	first, n int
}

var spWords, spInv, spLim = buildSmallPrimes()

func buildSmallPrimes() (words []primeWord, inv, lim []uint) {
	composite := make([]bool, smallPrimeLimit)
	cur := primeWord{prod: 1}
	for p := uint(3); p < smallPrimeLimit; p += 2 {
		if composite[p] {
			continue
		}
		for q := p * p; q < smallPrimeLimit; q += 2 * p {
			composite[q] = true
		}
		if hi, lo := bits.Mul(cur.prod, p); hi == 0 {
			cur.prod = lo
			cur.n++
		} else {
			words = append(words, cur)
			cur = primeWord{prod: p, first: len(inv), n: 1}
		}
		inv = append(inv, invWord(p))
		lim = append(lim, ^uint(0)/p)
	}
	return append(words, cur), inv, lim
}

// trialWords is how many packed words a k-limb candidate is divided by.
// A word costs k divisions and the base-2 test it may save ~k³ word
// multiplies, while the share of candidates a word removes falls with the
// size of its primes: the useful prefix grows like k².
func trialWords(k int) int {
	return min(k*k, len(spWords))
}

// primeSearch is the scratch of one search: the candidate's limbs and its
// throwaway Montgomery context. pregenPrime makes one per call, because it
// runs on PrimePool's refill goroutine beside the node's Hasher.
type primeSearch struct {
	mc       montCtx // m is the candidate; one = R mod m; no rr, no mod
	minusOne []uint  // m - one: -1 in Montgomery form
	acc      []uint
}

func newPrimeSearch(bitLen int) *primeSearch {
	k := (bitLen + _W - 1) / _W
	arena := make([]uint, 5*k+1)
	return &primeSearch{
		mc:       montCtx{k: k, m: arena[:k], one: arena[k : 2*k], t: arena[2*k : 3*k+1]},
		minusOne: arena[3*k+1 : 4*k+1],
		acc:      arena[4*k+1:],
	}
}

// load sets the candidate from its big-endian encoding: odd, >= 3, and of
// exactly the bit length the search was built for (a non-zero top limb).
func (s *primeSearch) load(be []byte) {
	n := s.mc.m
	for i := range n {
		n[i] = 0
	}
	for i, b := range be {
		pos := len(be) - 1 - i
		n[pos/(_W/8)] |= uint(b) << (8 * uint(pos%(_W/8)))
	}
}

// maybePrime reports false only for a composite candidate.
func (s *primeSearch) maybePrime() bool {
	return !s.hasSmallFactor() && s.strongBase2()
}

// hasSmallFactor reports whether a small prime properly divides the
// candidate. Candidates inside the table's own range are left to the next
// stage: they may BE one of its primes.
func (s *primeSearch) hasSmallFactor() bool {
	n := s.mc.m
	if limbsBitLen(n) < bits.Len(smallPrimeLimit) {
		return false // n < smallPrimeLimit
	}
	for _, w := range spWords[:trialWords(len(n))] {
		var r uint
		for i := len(n) - 1; i >= 0; i-- {
			_, r = bits.Div(r, n[i], w.prod)
		}
		for j := w.first; j < w.first+w.n; j++ {
			if r*spInv[j] <= spLim[j] {
				return true
			}
		}
	}
	return false
}

// strongBase2 is the base-2 strong-probable-prime (Miller-Rabin) test for
// an odd candidate >= 3: with n-1 = d·2^s, n passes when 2^d = 1 or
// 2^(d·2^r) = -1 for some r < s. Everything stays in Montgomery form;
// only equality with ±1 is ever asked.
func (s *primeSearch) strongBase2() bool {
	c := &s.mc
	n, one, acc := c.m, c.one, s.acc
	c.n0inv = -invWord(n[0])

	// R mod n. With b = bitlen(n), 2^b - n is the two's complement of n
	// cut to b bits, and lies in (0, n) because n > 2^(b-1); doubling it
	// mod n once per remaining bit of R = 2^(W·k) gives R mod n.
	b := limbsBitLen(n)
	var borrow uint
	for i := range n {
		one[i], borrow = bits.Sub(0, n[i], borrow)
	}
	if rem := uint(b % _W); rem != 0 {
		one[len(n)-1] &= 1<<rem - 1
	}
	for i := b; i < len(n)*_W; i++ {
		limbsDouble(one, n)
	}
	borrow = 0
	for i := range n {
		s.minusOne[i], borrow = bits.Sub(n[i], one[i], borrow)
	}

	// n is odd, so above bit 0 the bits of n-1 are the bits of n, and its
	// trailing zeros are those of n with bit 0 cleared.
	tz := 0
	for i, w := range n {
		if i == 0 {
			w &^= 1
		}
		if w != 0 {
			tz += bits.TrailingZeros(w)
			break
		}
		tz += _W
	}

	// 2^d, left to right over the bits of d = (n-1) >> tz.
	copy(acc, one)
	limbsDouble(acc, n) // top bit
	for i := b - 2; i >= tz; i-- {
		c.sqr(acc, acc)
		if n[i/_W]>>(uint(i)%_W)&1 != 0 {
			limbsDouble(acc, n)
		}
	}
	if limbsEqual(acc, one) || limbsEqual(acc, s.minusOne) {
		return true
	}
	for r := 1; r < tz; r++ {
		c.sqr(acc, acc)
		if limbsEqual(acc, s.minusOne) {
			return true
		}
		if limbsEqual(acc, one) {
			return false // a square root of 1 other than ±1
		}
	}
	return false
}

// limbsDouble sets a = 2a mod m for a < m.
func limbsDouble(a, m []uint) {
	var carry uint
	for i, w := range a {
		a[i] = w<<1 | carry
		carry = w >> (_W - 1)
	}
	if carry != 0 || !limbsLess(a, m) {
		var borrow uint
		for i := range a {
			a[i], borrow = bits.Sub(a[i], m[i], borrow)
		}
	}
}

func limbsEqual(a, b []uint) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func limbsBitLen(a []uint) int {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != 0 {
			return i*_W + bits.Len(a[i])
		}
	}
	return 0
}
