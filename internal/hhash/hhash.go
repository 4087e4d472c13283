// Package hhash implements the homomorphic hash of PAG (§IV-B): an unpadded
// RSA-style function H(u)_(p,M) = u^p mod M over a public modulus M whose
// factorisation is discarded at generation time.
//
// The function satisfies the two multiplicative identities the protocol
// exploits:
//
//	H(u1)_(p,M) · H(u2)_(p,M) = H(u1·u2)_(p,M)
//	H(H(u)_(p1,M))_(p2,M)     = H(u)_(p1·p2,M)
//
// Monitors use them to check that a node forwards the product of the
// updates it received — without learning the updates — by lifting per-
// predecessor attestations to the product key K(R,B) = ∏ p_i of the prime
// exponents the node handed out during round R, and comparing against the
// successors' acknowledgements.
//
// The §V-D buffermap is the one place the paper lifts that this package
// does not: an entry is only tested for membership, by the node that
// decrypted the prime, so Hasher.Tags keys a SHA-256 with the prime
// instead of lifting.
//
// The paper uses a 512-bit modulus ("as recommended in [28]") and 512-bit
// primes; both sizes are configurable here (§VII-C discusses a 256-bit
// modulus as a cheaper option, which the ablation benchmarks cover).
package hhash

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"slices"
	"sync/atomic"

	"repro/internal/obs"
)

// DefaultModulusBits is the paper's modulus size (§VII-A), which is also
// the size of its prime exponents: sessions draw primes as wide as the
// modulus.
const DefaultModulusBits = 512

var (
	_one = big.NewInt(1)
	_two = big.NewInt(2)
)

// Params carries the public hash parameters: the modulus M. The
// factorisation of M is never stored; nodes "cannot decrypt the hashed
// updates, as the value of the modulus M is smaller than the size of
// updates" (§IV-B).
type Params struct {
	m *big.Int
}

// GenerateParams creates a fresh modulus M = p·q of exactly the given bit
// size from two random primes and discards the factors. rnd may be nil to
// use crypto/rand.Reader. The factors come from pregenPrime, which reads a
// fixed number of bytes per start, so identically seeded readers yield
// the same modulus — what lets separate processes share one.
// (crypto/rand.Prime reads one extra byte on a coin flip, so its primes
// depend on more than the stream.)
func GenerateParams(rnd io.Reader, bits int) (Params, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	if bits < 16 {
		return Params{}, fmt.Errorf("hhash: modulus size %d too small", bits)
	}
	half := bits / 2
	p, err := pregenPrime(rnd, half)
	if err != nil {
		return Params{}, fmt.Errorf("hhash: generating modulus factor: %w", err)
	}
	q, err := pregenPrime(rnd, bits-half)
	if err != nil {
		return Params{}, fmt.Errorf("hhash: generating modulus factor: %w", err)
	}
	return Params{m: new(big.Int).Mul(p.e, q.e)}, nil
}

// ParamsFromModulus builds Params from an existing modulus, validating it:
// an odd number above 2, like every product GenerateParams draws, which is
// what the Montgomery engine every exponentiation runs on needs.
func ParamsFromModulus(m *big.Int) (Params, error) {
	if m == nil || m.Cmp(_two) <= 0 {
		return Params{}, errors.New("hhash: modulus must be > 2")
	}
	if m.Bit(0) == 0 {
		return Params{}, errors.New("hhash: modulus must be odd")
	}
	return Params{m: new(big.Int).Set(m)}, nil
}

// Modulus returns a copy of M.
func (p Params) Modulus() *big.Int {
	if p.m == nil {
		return nil
	}
	return new(big.Int).Set(p.m)
}

// ValueLen returns the fixed byte length of an encoded hash value
// (the width of M). Wire encodings use it for deterministic sizing.
func (p Params) ValueLen() int {
	if p.m == nil {
		return 0
	}
	return (p.m.BitLen() + 7) / 8
}

// Key is a hash exponent: a prime number chosen by a receiver, or a product
// of such primes (e.g. K(R,B), the product of the primes node B handed to
// its predecessors during round R).
type Key struct {
	e *big.Int
}

// GeneratePrimeKey draws a fresh prime exponent of the given bit size;
// rnd may be nil to use crypto/rand.Reader. It is the generator PrimePool
// runs (pregenPrime). crypto/rand.Prime's 20-round Miller-Rabin schedule
// and its MaybeReadByte went with the switch, on the argument given at
// pregenPrime: Baillie-PSW acceptance for an ephemeral exponent, and a
// stream position that is a function of the stream alone.
func GeneratePrimeKey(rnd io.Reader, bits int) (Key, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	return pregenPrime(rnd, bits)
}

// OneKey is the multiplicative identity key (exponent 1); hashing with it
// returns the canonical embedding of the data itself.
func OneKey() Key { return Key{e: new(big.Int).Set(_one)} }

// IsZero reports whether the key is the zero value (unusable).
func (k Key) IsZero() bool { return k.e == nil }

// BitLen returns the bit length of the key's exponent (0 for the zero key).
func (k Key) BitLen() int {
	if k.e == nil {
		return 0
	}
	return k.e.BitLen()
}

// Mul returns the product key k·o — the K(R,X) construction of §V-A.
func (k Key) Mul(o Key) Key {
	if k.e == nil {
		return o
	}
	if o.e == nil {
		return k
	}
	return Key{e: new(big.Int).Mul(k.e, o.e)}
}

// Exponent returns a copy of the key's exponent.
func (k Key) Exponent() *big.Int {
	if k.e == nil {
		return nil
	}
	return new(big.Int).Set(k.e)
}

// Equal reports whether two keys have the same exponent.
func (k Key) Equal(o Key) bool {
	if k.e == nil || o.e == nil {
		return k.e == nil && o.e == nil
	}
	return k.e.Cmp(o.e) == 0
}

// Bytes encodes the key exponent big-endian.
func (k Key) Bytes() []byte {
	if k.e == nil {
		return nil
	}
	return k.e.Bytes()
}

// KeyFromBytes decodes a key encoded with Bytes. The decoded exponent is
// the key's own, so nothing is copied: every received Serve, KeyResponse
// and AttForward decodes one.
func KeyFromBytes(b []byte) (Key, error) {
	if len(b) == 0 {
		return Key{}, errors.New("hhash: empty key encoding")
	}
	e := new(big.Int).SetBytes(b)
	if e.Sign() == 0 {
		return Key{}, errors.New("hhash: key exponent must be positive")
	}
	return Key{e: e}, nil
}

// Counter tallies the hash operations a party performs. Table I reports
// exactly this quantity ("we measured the number of ... homomorphic hashes
// per second rather than the CPU load", §VII-C).
//
// The unit is LOGICAL: one hash-op per attestation lifted, however the
// lift is executed (its own modexp here; a simultaneous multi-
// exponentiation in VerifyForwarding and a folded equation in
// VerifyBatch, the benchmarks' alternatives), one per buffermap tag,
// which the paper computes as a lift and this build as a keyed hash
// (Tags), and one per count-power u^c (c ≠ 1) of every hash of a served
// multiset. A sender folds its served set once per round (Fold) and lifts
// that one product for each successor; each successor's attestation still
// counts the set's count-powers, one op each (Recharge), as if the set had
// been folded for it alone. Fast paths change how the work is executed,
// not how much protocol work was accounted — which is what keeps Table I
// rates comparable across them.
type Counter struct {
	hashOps atomic.Uint64 // lifts, count-powers and buffermap tags
}

// HashOps returns the number of hash operations performed.
func (c *Counter) HashOps() uint64 {
	if c == nil {
		return 0
	}
	return c.hashOps.Load()
}

// Reset zeroes the counter.
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.hashOps.Store(0)
}

// Hasher evaluates the hash under fixed Params, attributing operation
// counts to an optional per-node Counter.
//
// A Hasher serves one caller at a time: it carries per-instance scratch
// state (the Embed and Tags buffers), and a protocol node's driver calls
// it — monitor role included — from one goroutine at a time.
type Hasher struct {
	params Params
	ops    *Counter
	// mc is the Montgomery context of the modulus: every exponentiation
	// and multiplication mod M runs on it.
	mc *montCtx

	// liftSpans optionally times the hot operation — the Fig 9 profiling
	// hook (lifted-hash modexp dominates PAG's CPU cost). A nil histogram
	// (the default) costs one branch per call. The span *count* is
	// deterministic — one observation per logical lifted hash — while the
	// recorded durations are wall-clock, which is why the histogram is
	// registered as obs.ClassTimed.
	liftSpans *obs.Histogram

	// embedScratch holds Embed's update-sized dividend across calls. The
	// remainder is NOT what Embed returns: math/big sizes a remainder's
	// backing array after the dividend (~1 KB for a 938-byte update), and
	// embeddings are cached across rounds by the protocol layer, so Embed
	// hands out a modulus-sized copy and lets the big array go.
	embedScratch big.Int

	// tagInput holds Tags' hash input across calls.
	tagInput []byte
}

// NewHasher builds a Hasher; ops may be nil if counting is not needed.
func NewHasher(params Params, ops *Counter) *Hasher {
	return &Hasher{params: params, ops: ops, mc: newMontCtx(params.m)}
}

// Instrument attaches a timing histogram to the lifted-hash hot path
// (nil detaches it).
func (h *Hasher) Instrument(lift *obs.Histogram) {
	h.liftSpans = lift
}

// Params returns the hasher's parameters.
func (h *Hasher) Params() Params { return h.params }

// Embed maps arbitrary data to the multiplicative residue group: the bytes
// are interpreted as a big-endian integer reduced mod M; a zero residue is
// mapped to 1 so that products are never annihilated. The embedding is the
// "u" of H(u)_(p,M).
// The returned residue is a fresh modulus-sized copy (callers cache and
// retain embeddings).
func (h *Hasher) Embed(data []byte) *big.Int {
	h.embedScratch.SetBytes(data)
	r := new(big.Int).Mod(&h.embedScratch, h.params.m)
	if r.Sign() == 0 {
		r = _one
	}
	return new(big.Int).Set(r)
}

// Hash computes H(data)_(key,M) = Embed(data)^key mod M.
func (h *Hasher) Hash(key Key, data []byte) *big.Int {
	return h.Lift(h.Embed(data), key)
}

// Lift raises an existing hash value (or embedded residue) to a key:
// Lift(H(u)_(p1), p2) = H(u)_(p1·p2). This is the monitor-side operation of
// §V-B (message 8): raising an attestation to the remainder product.
func (h *Hasher) Lift(v *big.Int, key Key) *big.Int {
	if key.e == nil {
		panic("hhash: Lift with zero key")
	}
	if h.ops != nil {
		h.ops.hashOps.Add(1)
	}
	span := h.liftSpans.SpanStart()
	out := h.mc.exp(new(big.Int), v, key.e)
	h.liftSpans.SpanEnd(span)
	return out
}

// tagDomain opens every buffermap tag's hash input, so no other use of
// SHA-256 over the same numbers can produce one.
const tagDomain = "PAG buffermap tag v1"

// Tags sets dst[i] to the §V-D buffermap tag of the update whose embedding
// (Embed) is embeds[i], under the exchange's prime key, for every i; dst
// must hold len(embeds) tags. A tag is the first 8 bytes, big-endian, of
//
//	SHA-256(tagDomain ‖ prime ‖ embedding)
//
// with both numbers big-endian at Params.ValueLen bytes (a key wider than
// the modulus, which no honest node draws, at its own width). The
// responder tags what it owns and the requester its candidates, both
// through this one function, and they compare tags: equal embeddings give
// equal tags, and a tag reveals nothing to whoever lacks the prime, which
// travels encrypted to the requester alone. The paper lifts each entry,
// H(u)_(p,M); only 64 bits of it ever travelled, and nobody combines or
// lifts an entry, so a keyed hash gives the same membership test
// (DESIGN.md "The buffermap is a set of 64-bit tags"). Each tag counts as
// one hash-op, as the paper counts a buffermap lift; it is not a lift, so
// it opens no lift span. Tags allocates nothing once the hasher's scratch
// has grown to the modulus width.
func (h *Hasher) Tags(dst []uint64, embeds []*big.Int, key Key) {
	if key.e == nil {
		panic("hhash: Tags with zero key")
	}
	if len(embeds) == 0 {
		return
	}
	dst = dst[:len(embeds)]
	if h.ops != nil {
		h.ops.hashOps.Add(uint64(len(embeds)))
	}
	w := h.params.ValueLen()
	pw := max(w, (key.e.BitLen()+7)/8)
	n := len(tagDomain) + pw + w
	if cap(h.tagInput) < n {
		h.tagInput = make([]byte, n)
	}
	in := h.tagInput[:n]
	copy(in, tagDomain)
	key.e.FillBytes(in[len(tagDomain) : len(tagDomain)+pw])
	embed := in[len(tagDomain)+pw:]
	for i, v := range embeds {
		v.FillBytes(embed)
		sum := sha256.Sum256(in)
		dst[i] = binary.BigEndian.Uint64(sum[:8])
	}
}

// Combine multiplies two hash values mod M — the homomorphic combination of
// §V-C: H(S_A ∪ S_F)_K = H(S_A)_K × H(S_F)_K — on the Montgomery engine.
func (h *Hasher) Combine(a, b *big.Int) *big.Int {
	return h.mc.mulMod(new(big.Int), a, b)
}

// Identity returns the hash of the empty set: 1. A node that received
// nothing still has an obligation — the identity — which its successors'
// acknowledgements must match (empty exchanges keep R1/R2 checkable).
func (h *Hasher) Identity() *big.Int { return new(big.Int).Set(_one) }

// HashSet computes H(∏ items[i]^counts[i])_(key,M): the hash of the product
// of a set of updates with reception multiplicities (§V-D, "Multiple
// receptions"). counts may be nil, in which case every multiplicity is 1.
func (h *Hasher) HashSet(key Key, items [][]byte, counts []uint64) (*big.Int, error) {
	if counts != nil && len(counts) != len(items) {
		return nil, fmt.Errorf("hhash: %d items but %d counts", len(items), len(counts))
	}
	prod := h.ProductEmbed(items, counts)
	return h.Lift(prod, key), nil
}

// ProductEmbed returns ∏ Embed(items[i])^counts[i] mod M without the final
// key exponentiation: one Fold over the items.
func (h *Hasher) ProductEmbed(items [][]byte, counts []uint64) *big.Int {
	var f Fold
	for i, it := range items {
		c := uint64(1)
		if counts != nil {
			c = counts[i]
		}
		h.Mul(&f, h.Embed(it), c)
	}
	return h.FoldValue(new(big.Int), &f)
}

// VerifyForwarding checks the paper's monitor equation (§IV-B):
//
//	∏_j ( H(S_j)_(p_j,M) )^(K/p_j)  mod M  ==  ackHash
//
// where attestations[j] is the per-predecessor attested hash under prime
// p_j and remainders[j] is K/p_j = ∏_{k≠j} p_k. ackHash is the successor's
// acknowledgement under the full product key K.
// The product is evaluated by simultaneous multi-exponentiation
// (MultiExp) — one shared squaring chain instead of one full modexp per
// predecessor. Counter semantics are unchanged from the per-attestation
// loop it replaced: one logical hash-op per attestation, so Table I
// accounting stays comparable across the optimisation.
func (h *Hasher) VerifyForwarding(attestations []*big.Int, remainders []Key, ackHash *big.Int) (bool, error) {
	if len(attestations) != len(remainders) {
		return false, fmt.Errorf("hhash: %d attestations but %d remainders",
			len(attestations), len(remainders))
	}
	if h.ops != nil {
		h.ops.hashOps.Add(uint64(len(attestations)))
	}
	exps := make([]*big.Int, len(remainders))
	for j, k := range remainders {
		if k.e == nil {
			return false, errors.New("hhash: VerifyForwarding with zero remainder key")
		}
		exps[j] = k.e
	}
	acc, err := h.MultiExp(attestations, exps)
	if err != nil {
		return false, err
	}
	return acc.Cmp(ackHash) == 0, nil
}

// verifyForwardingNaive is the pre-optimisation reference: one full
// modular exponentiation per attestation. Kept (and benchmarked against
// the multi-exp path) as the correctness oracle.
func (h *Hasher) verifyForwardingNaive(attestations []*big.Int, remainders []Key, ackHash *big.Int) (bool, error) {
	if len(attestations) != len(remainders) {
		return false, fmt.Errorf("hhash: %d attestations but %d remainders",
			len(attestations), len(remainders))
	}
	acc := h.Identity()
	for j, att := range attestations {
		lifted := h.Lift(att, remainders[j])
		acc = h.Combine(acc, lifted)
	}
	return acc.Cmp(ackHash) == 0, nil
}

// EncodeValue appends to dst the wire representation of a hash value, a
// fixed-width big-endian byte string of Params.ValueLen bytes, and returns
// the extended slice.
func (p Params) EncodeValue(dst []byte, v *big.Int) ([]byte, error) {
	if v == nil || v.Sign() < 0 || v.Cmp(p.m) >= 0 {
		return nil, errors.New("hhash: value out of range for modulus")
	}
	n := len(dst)
	dst = slices.Grow(dst, p.ValueLen())[:n+p.ValueLen()]
	v.FillBytes(dst[n:])
	return dst, nil
}

// DecodeValue decodes a value encoded by EncodeValue into dst, in dst's
// own storage, and returns dst. On an error dst holds no meaningful value.
func (p Params) DecodeValue(dst *big.Int, b []byte) (*big.Int, error) {
	if len(b) != p.ValueLen() {
		return nil, fmt.Errorf("hhash: value encoding is %d bytes, want %d",
			len(b), p.ValueLen())
	}
	if dst.SetBytes(b).Cmp(p.m) >= 0 {
		return nil, errors.New("hhash: decoded value exceeds modulus")
	}
	return dst, nil
}
