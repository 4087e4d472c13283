package hhash

import (
	"bytes"
	crand "crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	mrand "math/rand"
	"testing"
)

// referencePregenPrime is the bare incremental walk: pregenPrime's start
// construction, then start, start+2, … each straight to ProbablyPrime(1),
// and a new start at the width or after searchWindow(bits) candidates. It
// is the oracle for the search, which must return the same prime at the
// same stream position.
func referencePregenPrime(rnd io.Reader, bits int) (Key, error) {
	if bits < 8 {
		return Key{}, fmt.Errorf("hhash: prime size %d too small", bits)
	}
	b := uint(bits % 8)
	if b == 0 {
		b = 8
	}
	buf := make([]byte, (bits+7)/8)
	for {
		if _, err := io.ReadFull(rnd, buf); err != nil {
			return Key{}, fmt.Errorf("hhash: generating prime key: %w", err)
		}
		buf[0] &= uint8(int(1<<b) - 1)
		if b >= 2 {
			buf[0] |= 3 << (b - 2)
		} else {
			buf[0] |= 1
			buf[1] |= 0x80
		}
		buf[len(buf)-1] |= 1
		p := new(big.Int).SetBytes(buf)
		for i := 0; i < searchWindow(bits) && p.BitLen() == bits; i++ {
			if p.ProbablyPrime(1) {
				return Key{e: p}, nil
			}
			p.Add(p, _two)
		}
	}
}

// accepts runs stages 2 and 3 on the big-endian candidate.
func (s *primeSearch) accepts(be []byte) bool {
	limbsFromBytes(s.mc.m, be)
	return s.probablyPrime()
}

// countingReader counts the bytes handed out and can fail after a budget.
type countingReader struct {
	r      io.Reader
	n      int
	budget int // < 0: unlimited
}

var errStreamDry = errors.New("stream dry")

func (c *countingReader) Read(p []byte) (int, error) {
	if c.budget >= 0 && c.n+len(p) > c.budget {
		return 0, errStreamDry
	}
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// searchWidths are the widths the differential tests cover: the 8-bit
// floor, partial and full top limbs on both sides of one and two words,
// the 48/64-bit primes tests and core use, and the production sizes.
var searchWidths = []int{8, 9, 15, 16, 48, 63, 64, 65, 127, 128, 256, 512}

// TestPrimeSearchMatchesReference: on equal seeded streams the search and
// the bare loop return the same primes after consuming the same bytes.
func TestPrimeSearchMatchesReference(t *testing.T) {
	for _, bits := range searchWidths {
		draws := 40
		if testing.Short() && bits > 128 {
			draws = 4
		}
		got := &countingReader{r: mrand.New(mrand.NewSource(int64(bits))), budget: -1}
		want := &countingReader{r: mrand.New(mrand.NewSource(int64(bits))), budget: -1}
		for i := 0; i < draws; i++ {
			g, err := GeneratePrimeKey(got, bits)
			if err != nil {
				t.Fatal(err)
			}
			w, err := referencePregenPrime(want, bits)
			if err != nil {
				t.Fatal(err)
			}
			if g.e.Cmp(w.e) != 0 {
				t.Fatalf("bits=%d draw %d: search found %v, reference %v", bits, i, g.e, w.e)
			}
			if got.n != want.n {
				t.Fatalf("bits=%d draw %d: search consumed %d bytes, reference %d", bits, i, got.n, want.n)
			}
			if !g.e.ProbablyPrime(1) || g.e.BitLen() != bits {
				t.Fatalf("bits=%d draw %d: %v is not an accepted %d-bit prime", bits, i, g.e, bits)
			}
		}
	}
}

// TestPrimeSearchReaderError: a stream that fails — at once, or in the
// middle of a search — surfaces the reference loop's wrapped error.
func TestPrimeSearchReaderError(t *testing.T) {
	for _, budget := range []int{0, 16, 200} {
		got := &countingReader{r: mrand.New(mrand.NewSource(5)), budget: budget}
		want := &countingReader{r: mrand.New(mrand.NewSource(5)), budget: budget}
		var gerr, werr error
		for gerr == nil && werr == nil {
			_, gerr = GeneratePrimeKey(got, 128)
			_, werr = referencePregenPrime(want, 128)
		}
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() || !errors.Is(gerr, errStreamDry) {
			t.Fatalf("budget %d: search error %v, reference error %v", budget, gerr, werr)
		}
		if got.n != want.n {
			t.Fatalf("budget %d: consumed %d bytes, reference %d", budget, got.n, want.n)
		}
	}
	if _, err := GeneratePrimeKey(failingReader{}, 64); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("failing reader: %v", err)
	}
	if _, err := GeneratePrimeKey(mrand.New(mrand.NewSource(1)), 7); err == nil {
		t.Fatal("7-bit prime accepted")
	}
}

// searchFor loads n into a search sized for it, ready for stages 2 and 3.
func searchFor(n *big.Int) *primeSearch {
	s := newPrimeSearch(n.BitLen())
	limbsFromBytes(s.mc.m, n.Bytes())
	s.setupMont()
	return s
}

// TestStrongBase2Pseudoprimes: base-2 strong pseudoprimes are exactly the
// composites the second stage cannot see. It must pass them (it is a
// faithful base-2 test, not something stricter that could reject a prime)
// and the search as a whole must still turn them away.
func TestStrongBase2Pseudoprimes(t *testing.T) {
	for _, dec := range []string{
		"2047", "3277", "4033", "4681", "8321", "15841", "29341", // the first seven
		"3215031751",                                     // also strong to bases 3, 5, 7
		"3825123056546413051",                            // strong to every prime base up to 23
		"318665857834031151167461",                       // ... up to 37 (79 bits)
		"3317044064679887385961981",                      // ... up to 41 (82 bits)
		"1195068768795265792518361315725116351898245581", // Arnault, 150 bits: bases up to 29
	} {
		n, _ := new(big.Int).SetString(dec, 10)
		s := searchFor(n)
		if !s.strongBase2() {
			t.Errorf("%s: base-2 strong pseudoprime rejected by the base-2 stage", dec)
		}
		if s.accepts(n.Bytes()) {
			t.Errorf("%s: composite accepted by the search", dec)
		}
	}
	// And it does reject: Fermat pseudoprimes to base 2 that are not
	// strong ones, and plain composites.
	for _, n := range []int64{341, 561, 645, 1105, 1729, 2465, 9, 15, 25, 65535, 1<<31 + 1} {
		if searchFor(big.NewInt(n)).strongBase2() {
			t.Errorf("%d passes the base-2 stage", n)
		}
	}
}

// TestPrefilterNeverRejectsPrime: the sieve never drops a prime, nor does
// the base-2 stage. Exhaustively at 8 to 20 bits: from every start
// pregenPrime can draw, the search returns the first prime at or above it,
// or draws again when its window holds none below 2^bits. On random primes
// from crypto/rand.Prime at every width: from a start a random even
// distance below each, the search returns the first prime the bare walk
// finds. And the base-2 stage passes every prime below 2¹⁶.
func TestPrefilterNeverRejectsPrime(t *testing.T) {
	const limit = 1 << 20
	composite := make([]bool, limit)
	for p := 3; p < limit; p += 2 {
		if composite[p] {
			continue
		}
		for q := 3 * p; q < limit; q += 2 * p {
			composite[q] = true
		}
		if p < 1<<16 && !searchFor(big.NewInt(int64(p))).strongBase2() {
			t.Fatalf("base-2 stage rejects the prime %d", p)
		}
	}
	for bits := 8; bits <= 20; bits++ {
		s := newPrimeSearch(bits)
		buf := make([]byte, (bits+7)/8)
		for start := 3<<(bits-2) | 1; start < 1<<bits; start += 2 {
			want := 0
			for c := start; c < start+2*searchWindow(bits) && c < 1<<bits; c += 2 {
				if !composite[c] {
					want = c
					break
				}
			}
			big.NewInt(int64(start)).FillBytes(buf)
			got, err := s.next(bytes.NewReader(buf))
			switch {
			case want == 0 && !errors.Is(err, io.EOF):
				t.Fatalf("bits=%d start %d: no prime in the window, search gave %v, %v", bits, start, got.e, err)
			case want != 0 && (err != nil || got.e.Int64() != int64(want)):
				t.Fatalf("bits=%d start %d: search gave %v, %v; the first prime is %d", bits, start, got.e, err, want)
			}
		}
	}
	rnd := mrand.New(mrand.NewSource(29))
	for _, bits := range searchWidths {
		draws := 1000 // ~20 s in all, most of it crypto/rand.Prime at 512 bits
		if testing.Short() {
			draws = 20
		}
		s := newPrimeSearch(bits)
		low := new(big.Int).Lsh(big.NewInt(3), uint(bits-2))
		for i := 0; i < draws; i++ {
			p, err := crand.Prime(crand.Reader, bits)
			if err != nil {
				t.Fatal(err)
			}
			start := new(big.Int).Sub(p, big.NewInt(2*int64(rnd.Intn(min(64, searchWindow(bits))))))
			if start.Cmp(low) <= 0 {
				start.Set(p)
			}
			want := new(big.Int).Set(start)
			for !want.ProbablyPrime(1) {
				want.Add(want, _two)
			}
			got, err := s.next(bytes.NewReader(start.Bytes()))
			if err != nil || got.e.Cmp(want) != 0 {
				t.Fatalf("bits=%d: from %v the search gave %v, %v; the walk finds %v (below the prime %v)", bits, start, got.e, err, want, p)
			}
		}
	}
}

// keySink keeps allocation tests' keys on the heap.
var keySink Key

// TestPrefilterAllocations: a search allocates only the key it returns —
// the sieve, the walk and both stages run on its scratch — and so does a
// warm pool's Get, the refill it kicks included.
func TestPrefilterAllocations(t *testing.T) {
	for _, bits := range []int{64, 128, 512} {
		s := newPrimeSearch(bits)
		rnd := mrand.New(mrand.NewSource(19))
		if _, err := s.next(rnd); err != nil {
			t.Fatal(err)
		}
		keyAllocs := testing.AllocsPerRun(50, func() { keySink = Key{e: limbsToInt(new(big.Int), s.mc.m)} })
		if keyAllocs == 0 {
			t.Fatalf("bits=%d: a key allocates nothing, so the check below checks nothing", bits)
		}
		if allocs := testing.AllocsPerRun(20, func() { keySink, _ = s.next(rnd) }); allocs != keyAllocs {
			t.Errorf("bits=%d: a search allocates %.0f objects, its key %.0f", bits, allocs, keyAllocs)
		}
		pool, err := NewPrimePool(mrand.New(mrand.NewSource(23)), bits)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 * primePoolTarget {
			if keySink, err = pool.Get(); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { keySink, _ = pool.Get() }); allocs > keyAllocs {
			t.Errorf("bits=%d: a warm pool's Get allocates %.0f objects, its key %.0f", bits, allocs, keyAllocs)
		}
	}
}

// referenceLucas is math/big's probablyPrimeLucas for odd n >= 3, spelled
// out on big.Int: the oracle for the Lucas stage alone, on composites the
// base-2 stage would never let through to it.
func referenceLucas(n *big.Int) bool {
	p := int64(3)
	for ; ; p++ {
		if p > lucasMaxP {
			return false
		}
		j := big.Jacobi(big.NewInt(p*p-4), n)
		if j == -1 {
			break
		}
		if j == 0 {
			return n.Cmp(big.NewInt(p+2)) == 0
		}
		if p == 40 {
			if root := new(big.Int).Sqrt(n); root.Mul(root, root).Cmp(n) == 0 {
				return false
			}
		}
	}
	s := new(big.Int).Add(n, _one)
	r := int(s.TrailingZeroBits())
	s.Rsh(s, uint(r))
	bigP := big.NewInt(p)
	vk, vk1 := big.NewInt(2), big.NewInt(p)
	step := func(dst, a, b, sub *big.Int) {
		dst.Mul(a, b)
		dst.Sub(dst, sub)
		dst.Mod(dst, n)
	}
	for i := s.BitLen() - 1; i >= 0; i-- {
		if s.Bit(i) != 0 {
			step(vk, vk, vk1, bigP)
			step(vk1, vk1, vk1, _two)
		} else {
			step(vk1, vk, vk1, bigP)
			step(vk, vk, vk, _two)
		}
	}
	nm2 := new(big.Int).Sub(n, _two)
	if vk.Cmp(_two) == 0 || vk.Cmp(nm2) == 0 {
		u := new(big.Int).Mul(vk, bigP)
		u.Sub(u, new(big.Int).Lsh(vk1, 1))
		if u.Mod(u, n).Sign() == 0 {
			return true
		}
	}
	for t := 0; t < r-1; t++ {
		if vk.Sign() == 0 {
			return true
		}
		if vk.Cmp(_two) == 0 {
			return false
		}
		step(vk, vk, vk, _two)
	}
	return false
}

// sameVerdict checks the search against ProbablyPrime(1), and its Lucas
// stage against referenceLucas, on one odd n >= 3.
func sameVerdict(t *testing.T, s *primeSearch, n *big.Int) {
	t.Helper()
	enc := n.Bytes()
	if got, want := s.accepts(enc), n.ProbablyPrime(1); got != want {
		t.Fatalf("%v: search says %v, ProbablyPrime(1) %v", n, got, want)
	}
	limbsFromBytes(s.mc.m, enc)
	s.setupMont()
	if got, want := s.strongLucas(), referenceLucas(n); got != want {
		t.Fatalf("%v: Lucas stage says %v, math/big's test %v", n, got, want)
	}
}

// TestFinalCheckSmall: the search and ProbablyPrime(1) agree on every odd
// n below 10⁶ — where Baillie-PSW is exact, so both are the sieve — and
// the Lucas stage agrees with its reference on each, composite or not.
func TestFinalCheckSmall(t *testing.T) {
	const limit = 1_000_000
	composite := make([]bool, limit)
	for p := 3; p*p < limit; p += 2 {
		for q := p * p; !composite[p] && q < limit; q += 2 * p {
			composite[q] = true
		}
	}
	searches := map[int]*primeSearch{}
	n := new(big.Int)
	for v := int64(3); v < limit; v += 2 {
		n.SetInt64(v)
		s := searches[n.BitLen()]
		if s == nil {
			s = newPrimeSearch(n.BitLen())
			searches[n.BitLen()] = s
		}
		sameVerdict(t, s, n)
		if got := s.accepts(n.Bytes()); got == composite[v] {
			t.Fatalf("%d: accepted = %v, composite = %v", v, got, composite[v])
		}
	}
}

// TestFinalCheckPseudoprimes: the composites each stage is blind to. Base-2
// strong pseudoprimes and the Wieferich squares pass stage 2, Lucas
// pseudoprimes pass stage 3 (it is math/big's test, not a stricter one
// that could turn a prime away), Carmichael numbers pass every Fermat
// test; none passes both stages.
func TestFinalCheckPseudoprimes(t *testing.T) {
	tables := []struct {
		name         string
		base2, lucas bool // the verdict of stage 2 / stage 3 alone
		ns           []int64
	}{
		{"base-2 strong pseudoprimes", true, false, []int64{
			2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633,
			65281, 74665, 80581, 85489, 88357, 90751, 3215031751, 3825123056546413051}},
		{"Wieferich squares", true, false, []int64{1093 * 1093, 3511 * 3511}},
		{"extra strong Lucas pseudoprimes", false, true, []int64{
			989, 3239, 5777, 10877, 27971, 29681, 30739, 31631, 39059, 72389,
			73919, 75077, 100127, 113573, 125249, 137549, 137801, 153931, 155819}},
	}
	for _, tab := range tables {
		for _, v := range tab.ns {
			n := big.NewInt(v)
			s := searchFor(n)
			if got := s.strongBase2(); got != tab.base2 {
				t.Errorf("%s: %d: base-2 stage says %v", tab.name, v, got)
			}
			if got := s.strongLucas(); got != tab.lucas {
				t.Errorf("%s: %d: Lucas stage says %v", tab.name, v, got)
			}
			sameVerdict(t, s, n)
		}
	}
	for _, v := range []int64{
		561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
		46657, 52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401,
		172081, 188461, 252601, 278545, 294409, 314821, 334153, 340561,
		399001, 410041, 449065, 488881, 512461,
	} {
		n := big.NewInt(v)
		s := searchFor(n)
		if s.accepts(n.Bytes()) {
			t.Errorf("Carmichael number %d accepted", v)
		}
		sameVerdict(t, s, n)
	}
}

// TestFinalCheckMatchesProbablyPrime: on seeded candidates built the way
// pregenPrime builds its starts — and on unconstrained odd ones, which
// reach narrower top limbs — stages 2 and 3, on the dispatched kernels and
// on the portable ones, and ProbablyPrime(1) give one verdict. Candidates
// with a prime factor up to 47 are left out: the sieve's first packed word
// is those primes, every width sieves it, so the stages never see them.
func TestFinalCheckMatchesProbablyPrime(t *testing.T) {
	candidates := 200_000
	if testing.Short() {
		candidates = 10_000
	}
	first := sieveWords[0]
	small := new(big.Int).SetUint64(uint64(first.prod))
	sieved := func(n *big.Int) bool {
		r := uint(new(big.Int).Rem(n, small).Uint64())
		for _, p := range sievePrimes[first.first : first.first+first.n] {
			if r%uint(p) == 0 {
				return true
			}
		}
		return false
	}
	for _, bits := range []int{64, 128, 256, 512} {
		rnd := mrand.New(mrand.NewSource(int64(1000 + bits)))
		s := newPrimeSearch(bits)
		buf := make([]byte, bits/8)
		n := new(big.Int)
		primes := 0
		for i := 0; i < candidates; i++ {
			rnd.Read(buf)
			buf[0] |= 0x80
			if i%2 == 0 {
				buf[0] |= 0xC0
			}
			buf[len(buf)-1] |= 1
			if n.SetBytes(buf); sieved(n) {
				continue
			}
			got, want := s.accepts(buf), n.ProbablyPrime(1)
			if got != want {
				t.Fatalf("bits=%d: %v: search says %v, ProbablyPrime(1) %v", bits, n, got, want)
			}
			if portableKernels(func() { got = s.accepts(buf) }); got != want {
				t.Fatalf("bits=%d: %v: search on the portable kernels says %v, ProbablyPrime(1) %v", bits, n, got, want)
			}
			if got {
				primes++
			}
		}
		if primes < candidates/(2*bits) {
			t.Fatalf("bits=%d: only %d of %d candidates accepted", bits, primes, candidates)
		}
	}
}
