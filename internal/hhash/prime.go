package hhash

// Prime generation: PAG mints one fresh prime exponent per exchange
// (message 2 of Fig 5), which profiling shows is ~40% of a node's round
// CPU when generated inline with crypto/rand.Prime. PrimePool moves the
// generation off the exchange's critical path and pregenPrime replaces
// crypto/rand.Prime's draw-and-test loop with an allocation-free
// incremental search: one draw, one sieve, then a Baillie-PSW test on the
// survivors (primesearch.go).

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// pregenPrime draws a prime exponent of exactly `bits` bits from rnd.
//
// It mirrors crypto/rand.Prime's start construction — the top TWO bits
// and the low bit are forced, which is what keeps every prime (and every
// product of j primes) at a fixed encoded byte length; the wire format and
// therefore the report byte-identity depend on that length stability. It
// differs from crypto/rand.Prime in two ways. It walks from the start to
// the first prime instead of drawing every candidate afresh (incremental
// search, primesearch.go). And its acceptance test is Baillie-PSW, which
// is ProbablyPrime(1) without its one random-base Miller-Rabin round,
// instead of ProbablyPrime(20). BPSW has no known composite passing it,
// and the exponents here are ephemeral per-exchange keys (the homomorphic
// identities hold for any exponent; primality only backs the coprimality
// argument), so the reduced schedule trades nothing observable for a >2×
// generation speedup. Unlike crypto/rand.Prime it also consumes a
// deterministic number of stream bytes per start (no
// randutil.MaybeReadByte), so a seeded rnd yields a reproducible prime
// sequence.
func pregenPrime(rnd io.Reader, bits int) (Key, error) {
	if bits < 8 {
		return Key{}, fmt.Errorf("hhash: prime size %d too small", bits)
	}
	return newPrimeSearch(bits).next(rnd)
}

// PrimePool pregenerates prime exponents from a single entropy stream.
//
// Ordering is the pool's contract: the i-th Get always returns the i-th
// prime of the stream, no matter how generation interleaves with demand.
// Only the refill goroutine draws from rnd, at most one runs at a time,
// and it appends each prime FIFO; Get pops FIFO. With a per-node pool that
// keeps prime issuance a deterministic function of (stream, demand order),
// which is exactly what the worker-count byte-identity gate needs: demand
// order is fixed by the engine, and the refill goroutine only moves the
// draws earlier in wall time, never reorders them.
//
// The refill searches with the mutex released, so a Get waits only when
// the queue is empty: then for the prime being searched for.
//
// Refills run on a one-shot background goroutine (started when the queue
// runs low, exits when the queue is full), so an idle pool holds no
// goroutine and a session teardown leaks nothing.
type PrimePool struct {
	mu      sync.Mutex
	ready   sync.Cond // on mu: signalled when the refill queues a prime or fails
	rnd     io.Reader
	search  *primeSearch // the refill's scratch
	queue   []Key
	head    int
	filling bool
	err     error
}

// primePoolTarget is the refill high-water mark: comfortably above the
// per-round demand (one prime per predecessor; fan-out is log₁₀ n).
const primePoolTarget = 8

// NewPrimePool builds a pool drawing `bits`-bit primes from rnd. The
// first refill is lazy: no entropy is consumed before the first Get.
func NewPrimePool(rnd io.Reader, bits int) (*PrimePool, error) {
	if rnd == nil {
		return nil, errors.New("hhash: prime pool needs an entropy source")
	}
	if bits < 8 {
		return nil, fmt.Errorf("hhash: prime size %d too small", bits)
	}
	p := &PrimePool{rnd: rnd, search: newPrimeSearch(bits)}
	p.ready.L = &p.mu
	return p, nil
}

// Get pops the next pregenerated prime, waiting for the refill when the
// queue is empty, and kicks a background refill when the queue runs low.
func (p *PrimePool) Get() (Key, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.head == len(p.queue) {
		if p.err != nil {
			return Key{}, p.err
		}
		p.maybeFillLocked()
		p.ready.Wait()
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

// maybeFillLocked starts the one-shot refill goroutine when the queue is
// at or below half of primePoolTarget and no refill is in flight.
func (p *PrimePool) maybeFillLocked() {
	if p.filling || p.err != nil || len(p.queue)-p.head > primePoolTarget/2 {
		return
	}
	p.filling = true
	go p.fill()
}

// fill is the only reader of rnd. It searches with the mutex released and
// appends under it, so stream order is queue order.
func (p *PrimePool) fill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.err == nil && len(p.queue)-p.head < primePoolTarget {
		p.mu.Unlock()
		k, err := p.search.next(p.rnd)
		p.mu.Lock()
		if err != nil {
			p.err = err
		} else {
			p.queue = append(p.queue, k)
		}
		p.ready.Broadcast()
	}
	p.filling = false
}
