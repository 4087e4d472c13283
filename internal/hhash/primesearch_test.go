package hhash

import (
	crand "crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	mrand "math/rand"
	"testing"
)

// referencePregenPrime is pregenPrime as it was before the prefilter: the
// same candidate construction, every candidate straight to
// ProbablyPrime(1). It is the oracle for the search — the prefilter must
// change neither the prime returned nor the stream position it is found at.
func referencePregenPrime(rnd io.Reader, bits int) (Key, error) {
	if bits < 8 {
		return Key{}, fmt.Errorf("hhash: prime size %d too small", bits)
	}
	b := uint(bits % 8)
	if b == 0 {
		b = 8
	}
	buf := make([]byte, (bits+7)/8)
	p := new(big.Int)
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
		p.SetBytes(buf)
		if p.ProbablyPrime(1) {
			return Key{e: p}, nil
		}
	}
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

// searchFor loads n into a search sized for it.
func searchFor(n *big.Int) *primeSearch {
	s := newPrimeSearch(n.BitLen())
	s.load(n.Bytes())
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
		if s.accepts(n.Bytes(), new(big.Int)) {
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

// TestPrefilterNeverRejectsPrime: neither stage turns a prime away —
// exhaustively below 2¹⁶ (which covers candidates that are themselves
// trial-division primes) and on random primes from crypto/rand.Prime at
// every width.
func TestPrefilterNeverRejectsPrime(t *testing.T) {
	check := func(p *big.Int) {
		t.Helper()
		s := searchFor(p)
		if s.hasSmallFactor() {
			t.Fatalf("trial division rejects the prime %v", p)
		}
		if !s.strongBase2() {
			t.Fatalf("base-2 stage rejects the prime %v", p)
		}
	}
	composite := make([]bool, 1<<16)
	for p := 3; p < 1<<16; p += 2 {
		if composite[p] {
			continue
		}
		for q := p * p; q < 1<<16; q += 2 * p {
			composite[q] = true
		}
		check(big.NewInt(int64(p)))
	}
	for _, bits := range searchWidths {
		draws := 1000 // ~10 s in all, nearly all of it crypto/rand.Prime at 512 bits
		if testing.Short() {
			draws = 20
		}
		for i := 0; i < draws; i++ {
			p, err := crand.Prime(crand.Reader, bits)
			if err != nil {
				t.Fatal(err)
			}
			check(p)
		}
	}
}

// TestPrefilterAllocations: rejecting a candidate allocates nothing.
func TestPrefilterAllocations(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(19))
	for _, bits := range []int{64, 128, 512} {
		s := newPrimeSearch(bits)
		// Composites of each kind: a small factor, and none (a product of
		// two primes of half the width reaches the base-2 stage).
		a, _ := referencePregenPrime(rnd, bits/2)
		b, _ := referencePregenPrime(rnd, bits/2)
		semi := new(big.Int).Mul(a.e, b.e)
		if semi.BitLen() != bits {
			t.Fatalf("bits=%d: semiprime has %d bits", bits, semi.BitLen())
		}
		withFactor := new(big.Int).Lsh(_one, uint(bits-1))
		withFactor.Add(withFactor, _one)
		for new(big.Int).Mod(withFactor, big.NewInt(7)).Sign() != 0 {
			withFactor.Add(withFactor, _two) // odd, bits wide, a multiple of 7
		}
		for _, n := range []*big.Int{semi, withFactor} {
			enc := n.Bytes()
			if s.load(enc); s.maybePrime() {
				t.Fatalf("bits=%d: composite %v survives", bits, n)
			}
			if allocs := testing.AllocsPerRun(50, func() {
				s.load(enc)
				s.maybePrime()
			}); allocs != 0 {
				t.Errorf("bits=%d: prefilter allocates %.0f objects per rejected candidate", bits, allocs)
			}
		}
	}
}
