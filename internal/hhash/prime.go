package hhash

// Prime generation: PAG mints one fresh prime exponent per exchange
// (message 2 of Fig 5), which profiling shows is ~40% of a node's round
// CPU when generated inline with crypto/rand.Prime. PrimePool moves the
// generation off the exchange's critical path and pregenPrime cuts the
// primality-testing schedule from 20 Miller-Rabin rounds to an
// allocation-free Baillie-PSW test on the candidate's limbs
// (primesearch.go).

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
)

// pregenPrime draws a prime exponent of exactly `bits` bits from rnd.
//
// It mirrors crypto/rand.Prime's candidate construction — the top TWO
// bits and the low bit are forced, which is what keeps every prime (and
// every product of j primes) at a fixed encoded byte length; the wire
// format and therefore the report byte-identity depend on that length
// stability. It differs from crypto/rand.Prime in the acceptance test:
// ProbablyPrime(1) — one random-base Miller-Rabin round plus a
// Baillie-PSW Lucas test — instead of ProbablyPrime(20). BPSW has no
// known composite passing it, and the exponents here are ephemeral
// per-exchange keys (the homomorphic identities hold for any exponent;
// primality only backs the coprimality argument), so the reduced
// schedule trades nothing observable for a >2× generation speedup.
// Unlike crypto/rand.Prime it also consumes a deterministic number of
// stream bytes per candidate (no randutil.MaybeReadByte), so a seeded
// rnd yields a reproducible prime sequence.
//
// Composites are turned away by the allocation-free prefilter of
// primesearch.go before math/big sees them. It rejects nothing
// ProbablyPrime(1) would accept, so the prime returned — and the stream
// position it is returned at — is the one the bare loop
// (referencePregenPrime in the tests) returns.
func pregenPrime(rnd io.Reader, bits int) (Key, error) {
	if bits < 8 {
		return Key{}, fmt.Errorf("hhash: prime size %d too small", bits)
	}
	b := uint(bits % 8)
	if b == 0 {
		b = 8
	}
	buf := make([]byte, (bits+7)/8)
	search := newPrimeSearch(bits)
	for {
		if _, err := io.ReadFull(rnd, buf); err != nil {
			return Key{}, fmt.Errorf("hhash: generating prime key: %w", err)
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
		if search.accepts(buf) {
			return Key{e: new(big.Int).SetBytes(buf)}, nil
		}
	}
}

// IsProbablePrime reports whether n passes the acceptance test of
// GeneratePrimeKey: n >= 3, odd, and a Baillie-PSW probable prime
// (primesearch.go). It is exact below 2⁶⁴.
func IsProbablePrime(n *big.Int) bool {
	if n.Cmp(_two) <= 0 || n.Bit(0) == 0 {
		return false
	}
	return newPrimeSearch(n.BitLen()).accepts(n.Bytes())
}

// PrimePool pregenerates prime exponents from a single entropy stream.
//
// Ordering is the pool's contract: the i-th Get always returns the i-th
// prime of the stream, no matter how generation interleaves with demand —
// every draw from rnd happens under the pool mutex and appends FIFO, and
// Get pops FIFO. With a per-node pool that keeps prime issuance a
// deterministic function of (stream, demand order), which is exactly
// what the worker-count byte-identity gate needs: demand order is fixed
// by the engine, and the refill goroutine only moves the draws earlier
// in wall time, never reorders them.
//
// Refills run on a one-shot background goroutine (started when the queue
// runs low, exits when the queue is full), so an idle pool holds no
// goroutine and a session teardown leaks nothing.
type PrimePool struct {
	mu      sync.Mutex
	rnd     io.Reader
	bits    int
	target  int
	queue   []Key
	head    int
	filling bool
	err     error
}

// DefaultPrimePoolTarget is the refill high-water mark: comfortably above
// the per-round demand (one prime per predecessor; fan-out is log₁₀ n).
const DefaultPrimePoolTarget = 8

// NewPrimePool builds a pool drawing `bits`-bit primes from rnd. target
// is the refill high-water mark (DefaultPrimePoolTarget if <= 0). The
// first refill is lazy: no entropy is consumed before the first Get, so
// constructing a pool is free.
func NewPrimePool(rnd io.Reader, bits, target int) (*PrimePool, error) {
	if rnd == nil {
		return nil, errors.New("hhash: prime pool needs an entropy source")
	}
	if bits < 8 {
		return nil, fmt.Errorf("hhash: prime size %d too small", bits)
	}
	if target <= 0 {
		target = DefaultPrimePoolTarget
	}
	return &PrimePool{rnd: rnd, bits: bits, target: target}, nil
}

// Get pops the next pregenerated prime, generating inline (in stream
// order) when the queue is empty, and kicks a background refill when the
// queue runs low.
func (p *PrimePool) Get() (Key, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return Key{}, p.err
	}
	if p.head == len(p.queue) {
		k, err := pregenPrime(p.rnd, p.bits)
		if err != nil {
			p.err = err
			return Key{}, err
		}
		p.maybeFillLocked()
		return k, nil
	}
	k := p.queue[p.head]
	p.queue[p.head] = Key{}
	p.head++
	if p.head == len(p.queue) {
		p.queue = p.queue[:0]
		p.head = 0
	}
	p.maybeFillLocked()
	return k, nil
}

// Len returns the number of pregenerated primes currently queued.
func (p *PrimePool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue) - p.head
}

// maybeFillLocked starts the one-shot refill goroutine when the queue is
// at or below half the target and no refill is in flight.
func (p *PrimePool) maybeFillLocked() {
	if p.filling || p.err != nil || len(p.queue)-p.head > p.target/2 {
		return
	}
	p.filling = true
	go p.fill()
}

func (p *PrimePool) fill() {
	for {
		p.mu.Lock()
		if p.err != nil || len(p.queue)-p.head >= p.target {
			p.filling = false
			p.mu.Unlock()
			return
		}
		// Generation holds the mutex: the stream draw and the queue
		// append must be one atomic step for the FIFO ordering contract.
		// A Get racing this waits at most one generation — the same
		// latency it would have paid inline without a pool.
		k, err := pregenPrime(p.rnd, p.bits)
		if err != nil {
			p.err = err
			p.filling = false
			p.mu.Unlock()
			return
		}
		p.queue = append(p.queue, k)
		p.mu.Unlock()
	}
}
