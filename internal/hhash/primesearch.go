package hhash

// The acceptance test of the prime search. pregenPrime (prime.go) draws
// candidates and returns the first one accepts says yes to; almost every
// candidate is composite, so the test is three stages ordered by what they
// cost, all of them on the raw limbs and none of them allocating:
//
//  1. trial division by the small primes, packed into word-sized products
//     so that one pass over the limbs tests a dozen primes;
//  2. a base-2 strong-probable-prime test on a Montgomery context built
//     for the candidate alone. R mod n comes from a negation and a few
//     doublings and multiplying by 2 is a modular doubling, so the context
//     needs no R² and the test no division: it is squarings only;
//  3. a strong Lucas test on the same context (strongLucas below).
//
// Stages 2 and 3 together are the Baillie-PSW test, and stage 3 is
// math/big's probablyPrimeLucas move for move: the same parameter choice
// (Baillie-OEIS method C), the same perfect-square guard, the same "almost
// extra strong" conditions. big.Int.ProbablyPrime(1) — what the search
// called until it got its own stage 3, and what the tests still compare it
// against — is those two tests plus the trial division of stage 1 (up to
// 53) and one Miller-Rabin round to a pseudo-random base. So the search
// accepts what ProbablyPrime(1) accepts unless a composite passes
// Baillie-PSW and fails that extra round: a Baillie-PSW pseudoprime, of
// which none is known and none exists below 2⁶⁴. The prime sequence of a
// stream is what it was (referencePregenPrime in the tests is the oracle).

import (
	"math/big"
	"math/bits"
)

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
	acc      []uint  // the base-2 power; V(k) of the Lucas chain
	vk1      []uint  // V(k+1)
	pm, two  []uint  // the Lucas parameter P and 2, in Montgomery form
}

func newPrimeSearch(bitLen int) *primeSearch {
	k := (bitLen + _W - 1) / _W
	arena := make([]uint, 7*k)
	part := func(i int) []uint { return arena[i*k : (i+1)*k] }
	return &primeSearch{
		mc:       montCtx{k: k, m: part(0), one: part(1)},
		minusOne: part(2),
		acc:      part(3),
		vk1:      part(4),
		pm:       part(5),
		two:      part(6),
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

// accepts is the search's acceptance predicate for one candidate (the
// big-endian bytes of an odd number >= 3 of the search's bit length).
func (s *primeSearch) accepts(candidate []byte) bool {
	s.load(candidate)
	if s.hasSmallFactor() {
		return false
	}
	s.setupMont()
	return s.strongBase2() && s.strongLucas()
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

// setupMont completes the loaded candidate's Montgomery context: n0inv,
// one = R mod n and minusOne. Stages 2 and 3 both run on it.
func (s *primeSearch) setupMont() {
	c := &s.mc
	n, one := c.m, c.one
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
}

// strongBase2 is the base-2 strong-probable-prime (Miller-Rabin) test for
// an odd candidate >= 3: with n-1 = d·2^s, n passes when 2^d = 1 or
// 2^(d·2^r) = -1 for some r < s. Everything stays in Montgomery form;
// only equality with ±1 is ever asked.
func (s *primeSearch) strongBase2() bool {
	c := &s.mc
	n, one, acc := c.m, c.one, s.acc
	b := limbsBitLen(n)

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

// lucasMaxP bounds the search for the Lucas parameter, as math/big does
// (which panics beyond it: no non-square n is believed to get there). A
// candidate is cheap, so the search turns it away instead.
const lucasMaxP = 10000

// strongLucas is the "almost extra strong" Lucas probable-prime test of
// math/big's probablyPrimeLucas for an odd candidate >= 3, on the context
// setupMont built. Parameters are Baillie-OEIS method C: the first P >= 3
// with Jacobi(P²-4, n) = -1, and Q = 1. With n+1 = s·2^r, s odd, n passes
// when V(s) = ±2 and U(s) = 0, or V(s·2^t) = 0 for some t < r-1, where
// V(0) = 2, V(1) = P, V(k) = P·V(k-1) - V(k-2). The chain walks the bits of
// s with V(2k) = V(k)² - 2 and V(2k+1) = V(k)·V(k+1) - P: one mul and one
// sqr per bit, everything in Montgomery form.
func (s *primeSearch) strongLucas() bool {
	c := &s.mc
	n := c.m
	p := uint(3)
	for ; ; p++ {
		if p > lucasMaxP {
			return false
		}
		j := jacobiWord(p*p-4, n)
		if j == -1 {
			break
		}
		if j == 0 {
			// P²-4 = (P-2)(P+2) shares a factor with n, and P-2 was coprime
			// to it on an earlier turn: P+2 divides n, properly unless it
			// is n.
			return limbsBitLen(n) <= _W && n[0] == p+2
		}
		if p == 40 && isSquare(n) {
			// No D has Jacobi symbol -1 against a square. Base-2 strong
			// pseudoprimes can be squares (1093², 3511²), so the guard is
			// reachable; it is far too rare to deserve limb arithmetic.
			return false
		}
	}

	// n is odd: n+1 clears its trailing ones and sets the zero above them.
	// So r counts those ones, s = (n+1)>>r has bit 0 set and above it the
	// bits of n from r+1 up — none when n is all ones and s = 1.
	b := limbsBitLen(n)
	r := 0
	for _, w := range n {
		r += bits.TrailingZeros(^w)
		if w != ^uint(0) {
			break
		}
	}
	sLen := max(b-r, 1)

	two, pm, vk, vk1 := s.two, s.pm, s.acc, s.vk1
	copy(two, c.one)
	limbsDouble(two, n)
	// P·R mod n by double-and-add on R mod n.
	copy(pm, c.one)
	for i := bits.Len(p) - 2; i >= 0; i-- {
		limbsDouble(pm, n)
		if p>>uint(i)&1 != 0 {
			limbsAddMod(pm, c.one, n)
		}
	}

	copy(vk, two)
	copy(vk1, pm)
	for i := sLen - 1; i >= 0; i-- {
		if i == 0 || n[(i+r)/_W]>>(uint(i+r)%_W)&1 != 0 {
			c.mul(vk, vk, vk1)
			limbsSubMod(vk, pm, n)
			c.sqr(vk1, vk1)
			limbsSubMod(vk1, two, n)
		} else {
			c.mul(vk1, vk, vk1)
			limbsSubMod(vk1, pm, n)
			c.sqr(vk, vk)
			limbsSubMod(vk, two, n)
		}
	}

	// V(s) = ±2 and U(s) = 0; U(k) = D⁻¹(2·V(k+1) - P·V(k)) (Crandall and
	// Pomerance 3.13), so U(s) = 0 is P·V(s) = 2·V(s+1).
	if limbsEqual(vk, two) || limbsIsNeg(vk, two, n) {
		c.mul(pm, vk, pm)
		limbsDouble(vk1, n)
		if limbsEqual(pm, vk1) {
			return true
		}
	}
	for t := 0; t < r-1; t++ {
		if limbsBitLen(vk) == 0 {
			return true
		}
		if limbsEqual(vk, two) {
			return false // 2 is a fixed point of V -> V²-2
		}
		c.sqr(vk, vk)
		limbsSubMod(vk, two, n)
	}
	return false
}

// isSquare reports whether n is a perfect square.
func isSquare(n []uint) bool {
	v := limbsToInt(new(big.Int), n)
	root := new(big.Int).Sqrt(v)
	return root.Mul(root, root).Cmp(v) == 0
}

// jacobiWord returns the Jacobi symbol (d/n) for d > 0 and odd n >= 3.
func jacobiWord(d uint, n []uint) int {
	if limbsBitLen(n) <= _W {
		return jacobi(d%n[0], n[0])
	}
	// d < n: one flip by reciprocity and what is left fits words.
	d, j := jacobiFlip(d, n[0])
	var rem uint
	for i := len(n) - 1; i >= 0; i-- {
		_, rem = bits.Div(rem, n[i], d)
	}
	return j * jacobi(rem, d)
}

// jacobi returns the Jacobi symbol (a/n) for odd n and a < n.
func jacobi(a, n uint) int {
	j := 1
	for a != 0 {
		var flip int
		a, flip = jacobiFlip(a, n)
		j *= flip
		a, n = n%a, a
	}
	if n != 1 {
		return 0
	}
	return j
}

// jacobiFlip is one turn of the binary Jacobi algorithm on (a/n), a != 0
// and n odd: it takes the twos out of a and returns its odd part a' with
// the sign for which (a/n) = sign·(n/a'). Only the low bits of n matter.
func jacobiFlip(a, nLow uint) (odd uint, sign int) {
	sign = 1
	if tz := bits.TrailingZeros(a); tz > 0 {
		a >>= uint(tz)
		if n8 := nLow & 7; tz&1 != 0 && (n8 == 3 || n8 == 5) {
			sign = -sign
		}
	}
	if a&3 == 3 && nLow&3 == 3 {
		sign = -sign
	}
	return a, sign
}

// limbsDouble sets a = 2a mod m for a < m.
func limbsDouble(a, m []uint) {
	var carry uint
	for i, w := range a {
		a[i] = w<<1 | carry
		carry = w >> (_W - 1)
	}
	limbsReduceOnce(a, m, carry)
}

// limbsAddMod sets a = a+b mod m for a, b < m.
func limbsAddMod(a, b, m []uint) {
	var carry uint
	for i := range a {
		a[i], carry = bits.Add(a[i], b[i], carry)
	}
	limbsReduceOnce(a, m, carry)
}

// limbsReduceOnce subtracts m from carry·2^(W·k) + a when that is >= m.
func limbsReduceOnce(a, m []uint, carry uint) {
	if carry != 0 || !limbsLess(a, m) {
		var borrow uint
		for i := range a {
			a[i], borrow = bits.Sub(a[i], m[i], borrow)
		}
	}
}

// limbsSubMod sets a = a-b mod m for a, b < m.
func limbsSubMod(a, b, m []uint) {
	var borrow uint
	for i := range a {
		a[i], borrow = bits.Sub(a[i], b[i], borrow)
	}
	if borrow != 0 {
		var carry uint
		for i := range a {
			a[i], carry = bits.Add(a[i], m[i], carry)
		}
	}
}

// limbsIsNeg reports a = -b mod m for a, b < m and b != 0.
func limbsIsNeg(a, b, m []uint) bool {
	var carry uint
	for i := range a {
		var sum uint
		sum, carry = bits.Add(a[i], b[i], carry)
		if sum != m[i] {
			return false
		}
	}
	return carry == 0
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
