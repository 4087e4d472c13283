package hhash

// The prime search: incremental search (Brandt and Damgård, "On generation
// of probable primes by incremental search", CRYPTO '92). pregenPrime
// (prime.go) draws one random odd start and walks start, start+2, …,
// start+2(L-1) for L = searchWindow(bits), returning the first number on
// the walk that passes the test below. A walk that leaves the width, or a
// window without a prime, discards the start and draws a new one. Almost
// every number on the walk is composite, so it is judged in three stages
// ordered by what they cost, all on raw limbs and none allocating:
//
//  1. a sieve over the whole window at once: the start's residue modulo
//     each odd prime below sieveBound marks every offset that prime
//     divides, and a marked offset is never tested. The residues come
//     from packed words, products of consecutive primes that fit a word:
//     one division of the start per word, then one word-sized remainder
//     per prime. Every sieve prime is below every candidate, so a mark is
//     always a proper factor;
//  2. a base-2 strong-probable-prime test on a Montgomery context built
//     for the candidate alone. R mod n comes from a negation and a few
//     doublings and multiplying by 2 is a modular doubling, so the context
//     needs no R² and the test no division: it is squarings only;
//  3. a strong Lucas test on the same context (strongLucas below).
//
// Stages 2 and 3 together are the Baillie-PSW test, and stage 3 is
// math/big's probablyPrimeLucas move for move: the same parameter choice
// (Baillie-OEIS method C), the same perfect-square guard, the same "almost
// extra strong" conditions. big.Int.ProbablyPrime(1) — what the tests
// compare the search against — is those two tests plus trial division (up
// to 53) and one Miller-Rabin round to a pseudo-random base. So the search
// accepts what ProbablyPrime(1) accepts unless a composite passes
// Baillie-PSW and fails that extra round: a Baillie-PSW pseudoprime, of
// which none is known and none exists below 2⁶⁴. The sieve removes only
// multiples of primes smaller than the candidate, so the prime a stream
// yields is the one the bare walk (referencePregenPrime in the tests)
// yields, at the same stream position.

import (
	"fmt"
	"io"
	"math/big"
	"math/bits"
)

// sieveLimit bounds the sieve primes of every width, so each fits in 16
// bits.
const sieveLimit = 1 << 16

// primeWord is one packed sieve divisor: the product of the consecutive
// odd primes sievePrimes[first:first+n], which fits a word.
type primeWord struct {
	prod     uint
	first, n int
}

// sievePrimes and sieveWords are read-only package state, shared by every
// search.
var sievePrimes, sieveWords = buildSievePrimes()

func buildSievePrimes() (primes []uint16, words []primeWord) {
	composite := make([]bool, sieveLimit)
	cur := primeWord{prod: 1}
	for p := uint(3); p < sieveLimit; p += 2 {
		if composite[p] {
			continue
		}
		for q := p * p; q < sieveLimit; q += 2 * p {
			composite[q] = true
		}
		if hi, lo := bits.Mul(cur.prod, p); hi == 0 {
			cur.prod = lo
			cur.n++
		} else {
			words = append(words, cur)
			cur = primeWord{prod: p, first: len(primes), n: 1}
		}
		primes = append(primes, uint16(p))
	}
	return primes, append(words, cur)
}

// sieveBound is how far a search of the given width sieves. A sieve prime
// costs a share of one division of the start per drawn start, and the
// base-2 tests it saves cost ~k³ word multiplies each at k 64-bit words,
// so the bound grows like k³: 2¹⁶ at 512 bits, 2¹⁰ at 128. At one word it
// is 128, below every candidate even at the 8-bit floor (3·2⁶), which is
// what keeps a sieve prime from marking itself.
func sieveBound(bits int) uint {
	k := uint(bits+63) / 64
	return min(128*k*k*k, sieveLimit)
}

// searchWindow is how many odd offsets a start is walked over: whole words
// of marks, about four times the width. A window of L odd offsets holds no
// prime with probability ~exp(-2L/(bits·ln 2)), here ~e^-11.5.
func searchWindow(bits int) int {
	return 64 * ((bits + 15) / 16)
}

// primeSearch is the scratch of one search: the drawn start, the window's
// marks, the candidate's limbs and its throwaway Montgomery context.
// PrimePool keeps one for its stream, reused across primes; pregenPrime
// makes one per call.
type primeSearch struct {
	bits     int
	words    []primeWord // the prefix of sieveWords below sieveBound(bits)
	buf      []byte      // the drawn start, big-endian
	start    []uint      // the drawn start's limbs
	marks    []uint64    // bit i set: a sieve prime divides start+2i
	mc       montCtx     // m is the candidate; one = R mod m; no rr, no mod
	minusOne []uint      // m - one: -1 in Montgomery form
	acc      []uint      // the base-2 power; V(k) of the Lucas chain
	vk1      []uint      // V(k+1)
	pm, two  []uint      // the Lucas parameter P and 2, in Montgomery form
}

func newPrimeSearch(bitLen int) *primeSearch {
	k := (bitLen + _W - 1) / _W
	arena := make([]uint, 8*k)
	part := func(i int) []uint { return arena[i*k : (i+1)*k] }
	bound := sieveBound(bitLen)
	n := 0
	for n < len(sieveWords) && uint(sievePrimes[sieveWords[n].first+sieveWords[n].n-1]) < bound {
		n++
	}
	return &primeSearch{
		bits:     bitLen,
		words:    sieveWords[:n],
		buf:      make([]byte, (bitLen+7)/8),
		start:    part(7),
		marks:    make([]uint64, searchWindow(bitLen)/64),
		mc:       montCtx{k: k, m: part(0), one: part(1)},
		minusOne: part(2),
		acc:      part(3),
		vk1:      part(4),
		pm:       part(5),
		two:      part(6),
	}
}

// next draws starts from rnd until one's window holds a prime, and returns
// that prime. It consumes exactly one draw of the width's byte length per
// start.
func (s *primeSearch) next(rnd io.Reader) (Key, error) {
	for {
		if _, err := io.ReadFull(rnd, s.buf); err != nil {
			return Key{}, fmt.Errorf("hhash: generating prime key: %w", err)
		}
		maskStart(s.buf, s.bits)
		limbsFromBytes(s.start, s.buf)
		s.sieve()
		if s.walk() {
			return Key{e: limbsToInt(new(big.Int), s.mc.m)}, nil
		}
	}
}

// maskStart forces the top two bits and the low bit of a drawn start, as
// crypto/rand.Prime does: every prime, and every product of j primes, then
// has a fixed encoded length, which the wire format depends on.
func maskStart(buf []byte, bits int) {
	b := uint(bits % 8)
	if b == 0 {
		b = 8
	}
	buf[0] &= uint8(int(1<<b) - 1)
	if b >= 2 {
		buf[0] |= 3 << (b - 2)
	} else {
		// b == 1: the second-highest bit lives in the next byte.
		buf[0] |= 1
		buf[1] |= 0x80
	}
	buf[len(buf)-1] |= 1
}

// limbsFromBytes sets the limbs dst from a big-endian encoding that fits.
func limbsFromBytes(dst []uint, be []byte) {
	clear(dst)
	for i, b := range be {
		pos := len(be) - 1 - i
		dst[pos/(_W/8)] |= uint(b) << (8 * uint(pos%(_W/8)))
	}
}

// sieve marks every offset i of the window at which a sieve prime divides
// start+2i.
func (s *primeSearch) sieve() {
	clear(s.marks)
	window := uint(64 * len(s.marks))
	for _, w := range s.words {
		var r uint
		for i := len(s.start) - 1; i >= 0; i-- {
			_, r = bits.Div(r, s.start[i], w.prod)
		}
		for _, p := range sievePrimes[w.first : w.first+w.n] {
			p := uint(p)
			// The first i with 2i ≡ -start (mod p). p is odd, so one of
			// t and t+p is even, and its half is start·2⁻¹ mod p. A mask
			// picks it: t's parity is a coin flip, and a branch on it
			// would be mispredicted half the time.
			t := r % p
			t += p & -(t & 1)
			i := p - t/2
			if i == p {
				i = 0
			}
			for ; i < window; i += p {
				s.marks[i/64] |= 1 << (i % 64)
			}
		}
	}
}

// walk runs stages 2 and 3 on the unmarked offsets in order, and reports
// whether one passed; that prime is then s.mc.m. It gives up at the end of
// the window or at the first candidate past the width.
func (s *primeSearch) walk() bool {
	for wi, w := range s.marks {
		for free := ^w; free != 0; free &= free - 1 {
			if !s.setCandidate(uint(64*wi + bits.TrailingZeros64(free))) {
				return false
			}
			if s.probablyPrime() {
				return true
			}
		}
	}
	return false
}

// setCandidate sets s.mc.m to start+2i and reports whether it still has
// the search's width. The start has its top two bits set, so the walk can
// only leave the width by a carry out of the top bit.
func (s *primeSearch) setCandidate(i uint) bool {
	m := s.mc.m
	var carry uint
	m[0], carry = bits.Add(s.start[0], 2*i, 0)
	for j := 1; j < len(m); j++ {
		m[j], carry = bits.Add(s.start[j], 0, carry)
	}
	return carry == 0 && limbsBitLen(m) == s.bits
}

// probablyPrime runs stages 2 and 3 on the candidate in s.mc.m: an odd
// number >= 3 with no more limbs than the search was built for.
func (s *primeSearch) probablyPrime() bool {
	s.setupMont()
	return s.strongBase2() && s.strongLucas()
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
