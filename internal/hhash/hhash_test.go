package hhash

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// testParams returns small-but-real parameters for fast tests.
func testParams(t testing.TB) Params {
	t.Helper()
	p, err := GenerateParams(rand.New(rand.NewSource(42)), 128)
	if err != nil {
		t.Fatalf("GenerateParams: %v", err)
	}
	return p
}

func testKey(t testing.TB, seed int64) Key {
	t.Helper()
	k, err := GeneratePrimeKey(rand.New(rand.NewSource(seed)), 64)
	if err != nil {
		t.Fatalf("GeneratePrimeKey: %v", err)
	}
	return k
}

// TestGenerateParamsSize: the modulus has exactly the bits asked for, and
// two identically seeded generations agree — processes that share a seed
// must share a modulus.
func TestGenerateParamsSize(t *testing.T) {
	for _, bits := range []int{64, 128, 256, 512} {
		for seed := int64(1); seed <= 20; seed++ {
			a, err := GenerateParams(rand.New(rand.NewSource(seed)), bits)
			if err != nil {
				t.Fatal(err)
			}
			b, err := GenerateParams(rand.New(rand.NewSource(seed)), bits)
			if err != nil {
				t.Fatal(err)
			}
			if a.Modulus().Cmp(b.Modulus()) != 0 {
				t.Fatalf("bits=%d seed=%d: two seeded generations disagree", bits, seed)
			}
			if got := a.Modulus().BitLen(); got != bits {
				t.Fatalf("bits=%d seed=%d: modulus has %d bits", bits, seed, got)
			}
		}
	}
}

func TestGenerateParamsTooSmall(t *testing.T) {
	if _, err := GenerateParams(nil, 4); err == nil {
		t.Fatal("expected error for tiny modulus")
	}
}

func TestParamsRoundTrip(t *testing.T) {
	p := testParams(t)
	p2, err := ParamsFromModulus(p.Modulus())
	if err != nil {
		t.Fatal(err)
	}
	if p.Modulus().Cmp(p2.Modulus()) != 0 || p.ValueLen() != p2.ValueLen() {
		t.Fatal("modulus round-trip mismatch")
	}
}

func TestParamsFromModulusRejectsBad(t *testing.T) {
	if _, err := ParamsFromModulus(nil); err == nil {
		t.Fatal("nil modulus accepted")
	}
	if _, err := ParamsFromModulus(big.NewInt(2)); err == nil {
		t.Fatal("modulus 2 accepted")
	}
	if _, err := ParamsFromModulus(big.NewInt(65521 * 65518)); err == nil {
		t.Fatal("even modulus accepted")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	k := testKey(t, 7)
	k2, err := KeyFromBytes(k.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !k.Equal(k2) {
		t.Fatal("key round-trip mismatch")
	}
	if _, err := KeyFromBytes(nil); err == nil {
		t.Fatal("expected error for empty key")
	}
	if _, err := KeyFromBytes([]byte{0, 0}); err == nil {
		t.Fatal("expected error for a zero exponent")
	}
	// One big.Int and its limbs: the decoded exponent is not copied again.
	enc := k.Bytes()
	if n := testing.AllocsPerRun(100, func() { KeyFromBytes(enc) }); n > 2 {
		t.Fatalf("KeyFromBytes allocates %.0f objects, want <= 2", n)
	}
}

func TestKeyMul(t *testing.T) {
	k1, k2 := testKey(t, 1), testKey(t, 2)
	prod := k1.Mul(k2)
	want := new(big.Int).Mul(k1.Exponent(), k2.Exponent())
	if prod.Exponent().Cmp(want) != 0 {
		t.Fatal("Mul exponent mismatch")
	}
	// Zero key behaves as identity for Mul.
	var zero Key
	if !zero.Mul(k1).Equal(k1) || !k1.Mul(zero).Equal(k1) {
		t.Fatal("zero-key Mul should return the other key")
	}
	if !zero.IsZero() || k1.IsZero() {
		t.Fatal("IsZero misbehaves")
	}
}

func TestOneKeyIsEmbedding(t *testing.T) {
	p := testParams(t)
	h := NewHasher(p, nil)
	data := []byte("an update payload")
	if h.Hash(OneKey(), data).Cmp(h.Embed(data)) != 0 {
		t.Fatal("Hash with OneKey should equal Embed")
	}
}

// TestMultiplicativeIdentity1 checks H(u1)·H(u2) = H(u1·u2) (§IV-B).
func TestMultiplicativeIdentity1(t *testing.T) {
	p := testParams(t)
	h := NewHasher(p, nil)
	k := testKey(t, 3)
	u1, u2 := []byte("update-one"), []byte("update-two")

	left := h.Combine(h.Hash(k, u1), h.Hash(k, u2))

	prod := new(big.Int).Mul(h.Embed(u1), h.Embed(u2))
	prod.Mod(prod, p.Modulus())
	right := h.Lift(prod, k)

	if left.Cmp(right) != 0 {
		t.Fatal("identity 1 violated")
	}
}

// TestMultiplicativeIdentity2 checks H(H(u)_p1)_p2 = H(u)_(p1·p2) (§IV-B).
func TestMultiplicativeIdentity2(t *testing.T) {
	p := testParams(t)
	h := NewHasher(p, nil)
	k1, k2 := testKey(t, 4), testKey(t, 5)
	u := []byte("some content chunk")

	left := h.Lift(h.Hash(k1, u), k2)
	right := h.Hash(k1.Mul(k2), u)
	if left.Cmp(right) != 0 {
		t.Fatal("identity 2 violated")
	}
}

// TestIdentitiesProperty verifies both identities over random data with
// testing/quick.
func TestIdentitiesProperty(t *testing.T) {
	p := testParams(t)
	h := NewHasher(p, nil)
	k1, k2 := testKey(t, 6), testKey(t, 7)

	f := func(u1, u2 []byte) bool {
		// Identity 1.
		left := h.Combine(h.Hash(k1, u1), h.Hash(k1, u2))
		prod := new(big.Int).Mul(h.Embed(u1), h.Embed(u2))
		prod.Mod(prod, p.Modulus())
		if left.Cmp(h.Lift(prod, k1)) != 0 {
			return false
		}
		// Identity 2.
		return h.Lift(h.Hash(k1, u1), k2).Cmp(h.Hash(k1.Mul(k2), u1)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPaperVerificationEquation reproduces the full equation of §IV-B:
// (H(u1)_(p1))^(∏_{i≠1}pi) · ... · (H(uj)_(pj))^(∏_{i≠j}pi) = H(u1···uj)_(∏pi).
func TestPaperVerificationEquation(t *testing.T) {
	p := testParams(t)
	h := NewHasher(p, nil)

	const j = 4
	updates := make([][]byte, j)
	keys := make([]Key, j)
	for i := range updates {
		updates[i] = []byte{byte(i + 1), 0xAA, byte(i * 3), 0x17, byte(100 + i)}
		keys[i] = testKey(t, int64(100+i))
	}

	// Full product key K = ∏ pi.
	k := OneKey()
	for _, key := range keys {
		k = k.Mul(key)
	}

	// Per-predecessor attestations and remainders.
	atts := make([]*big.Int, j)
	rems := make([]Key, j)
	for i := range updates {
		atts[i] = h.Hash(keys[i], updates[i])
		rem := OneKey()
		for o, key := range keys {
			if o != i {
				rem = rem.Mul(key)
			}
		}
		rems[i] = rem
	}

	// Successor acknowledgement: H(∏ u)_(K,M).
	ack, err := h.HashSet(k, updates, nil)
	if err != nil {
		t.Fatal(err)
	}

	ok, err := h.VerifyForwarding(atts, rems, ack)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("paper verification equation does not hold")
	}
}

func TestVerifyForwardingDetectsTampering(t *testing.T) {
	p := testParams(t)
	h := NewHasher(p, nil)
	k1, k2 := testKey(t, 11), testKey(t, 12)
	u1, u2 := []byte("chunk-a"), []byte("chunk-b")

	atts := []*big.Int{h.Hash(k1, u1), h.Hash(k2, u2)}
	rems := []Key{k2, k1}

	// A selfish node drops u2 and only forwards u1.
	ack, err := h.HashSet(k1.Mul(k2), [][]byte{u1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := h.VerifyForwarding(atts, rems, ack)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("dropped update went undetected")
	}
}

func TestVerifyForwardingLengthMismatch(t *testing.T) {
	p := testParams(t)
	h := NewHasher(p, nil)
	if _, err := h.VerifyForwarding([]*big.Int{big.NewInt(1)}, nil, big.NewInt(1)); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestHashSetMultiplicities(t *testing.T) {
	p := testParams(t)
	h := NewHasher(p, nil)
	k := testKey(t, 13)
	u := []byte("dup")

	// Receiving u twice must equal hashing u twice in the product.
	withCounts, err := h.HashSet(k, [][]byte{u}, []uint64{2})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := h.HashSet(k, [][]byte{u, u}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if withCounts.Cmp(explicit) != 0 {
		t.Fatal("multiplicity 2 != duplicated item")
	}
}

func TestHashSetCountMismatch(t *testing.T) {
	p := testParams(t)
	h := NewHasher(p, nil)
	if _, err := h.HashSet(testKey(t, 14), [][]byte{{1}}, []uint64{1, 2}); err == nil {
		t.Fatal("expected count-mismatch error")
	}
}

func TestEmptySetIsIdentity(t *testing.T) {
	p := testParams(t)
	h := NewHasher(p, nil)
	got, err := h.HashSet(testKey(t, 15), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(1)) != 0 {
		t.Fatal("empty-set hash must be 1")
	}
	if h.Identity().Cmp(big.NewInt(1)) != 0 {
		t.Fatal("Identity must be 1")
	}
}

func TestEmbedNeverZero(t *testing.T) {
	p := testParams(t)
	h := NewHasher(p, nil)
	if h.Embed(nil).Sign() == 0 {
		t.Fatal("Embed(nil) is zero")
	}
	// Data that is an exact multiple of M embeds to 1, not 0.
	m := p.Modulus()
	if h.Embed(m.Bytes()).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("Embed(M) should be 1")
	}
}

func TestCounterAttribution(t *testing.T) {
	p := testParams(t)
	var c Counter
	h := NewHasher(p, &c)
	k := testKey(t, 16)

	h.Hash(k, []byte("x")) // 1 modexp
	h.Lift(big.NewInt(5), k)
	h.Combine(big.NewInt(2), big.NewInt(3))
	if got := c.HashOps(); got != 2 {
		t.Fatalf("HashOps = %d, want 2", got)
	}
	c.Reset()
	if c.HashOps() != 0 {
		t.Fatal("Reset failed")
	}
	var nilC *Counter
	if nilC.HashOps() != 0 {
		t.Fatal("nil counter should read zero")
	}
	nilC.Reset() // must not panic
}

func TestLiftZeroKeyPanics(t *testing.T) {
	p := testParams(t)
	h := NewHasher(p, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero key")
		}
	}()
	h.Lift(big.NewInt(3), Key{})
}

func TestValueEncodeDecode(t *testing.T) {
	p := testParams(t)
	h := NewHasher(p, nil)
	v := h.Hash(testKey(t, 17), []byte("payload"))

	enc, err := p.EncodeValue(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != p.ValueLen() {
		t.Fatalf("encoded length %d, want %d", len(enc), p.ValueLen())
	}
	dec, err := p.DecodeValue(new(big.Int), enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Cmp(v) != 0 {
		t.Fatal("value round-trip mismatch")
	}
}

func TestValueEncodeRejectsOutOfRange(t *testing.T) {
	p := testParams(t)
	if _, err := p.EncodeValue(nil, nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := p.EncodeValue(nil, p.Modulus()); err == nil {
		t.Fatal("value == M accepted")
	}
	if _, err := p.EncodeValue(nil, big.NewInt(-1)); err == nil {
		t.Fatal("negative accepted")
	}
}

func TestValueDecodeRejectsBad(t *testing.T) {
	p := testParams(t)
	if _, err := p.DecodeValue(new(big.Int), []byte{1, 2, 3}); err == nil {
		t.Fatal("short encoding accepted")
	}
	tooBig := bytes.Repeat([]byte{0xFF}, p.ValueLen())
	if _, err := p.DecodeValue(new(big.Int), tooBig); err == nil {
		t.Fatal("oversized value accepted")
	}
}

// TestObligationAlgebra runs the §V-C scenario: node B receives S_A from A
// and S_F from F; its monitors combine the lifted attestations and the
// result must equal the hash of the union under K(R,B).
func TestObligationAlgebra(t *testing.T) {
	p := testParams(t)
	h := NewHasher(p, nil)
	pA, pF := testKey(t, 21), testKey(t, 22)
	kRB := pA.Mul(pF)

	sa := [][]byte{[]byte("a1"), []byte("a2")}
	sf := [][]byte{[]byte("f1")}

	attA, err := h.HashSet(pA, sa, nil) // A's attestation under pA
	if err != nil {
		t.Fatal(err)
	}
	attF, err := h.HashSet(pF, sf, nil) // F's attestation under pF
	if err != nil {
		t.Fatal(err)
	}

	// Monitor lifts each attestation by the remainder and combines.
	obligation := h.Combine(h.Lift(attA, pF), h.Lift(attF, pA))

	union, err := h.HashSet(kRB, [][]byte{sa[0], sa[1], sf[0]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if obligation.Cmp(union) != 0 {
		t.Fatal("obligation algebra broken: combined lift != union hash")
	}
}

// TestHashHidesContentWithoutKey documents the privacy argument: without
// the prime, a dictionary attacker hashing candidate updates under a wrong
// key matches nothing.
func TestHashHidesContentWithoutKey(t *testing.T) {
	p := testParams(t)
	h := NewHasher(p, nil)
	secretKey := testKey(t, 31)
	guessKey := testKey(t, 32)

	dictionary := [][]byte{[]byte("u0"), []byte("u1"), []byte("u2"), []byte("u3")}
	observed := h.Hash(secretKey, dictionary[2])

	for _, cand := range dictionary {
		if h.Hash(guessKey, cand).Cmp(observed) == 0 {
			t.Fatal("dictionary attack succeeded without the prime")
		}
	}
	// With the prime, the dictionary attack works — exactly the §VI-A
	// coalition attack that needs ≥ f colluders to learn the prime.
	if h.Hash(secretKey, dictionary[2]).Cmp(observed) != 0 {
		t.Fatal("hash is not deterministic")
	}
}

func BenchmarkHash512(b *testing.B) {
	p, err := GenerateParams(nil, 512)
	if err != nil {
		b.Fatal(err)
	}
	k, err := GeneratePrimeKey(nil, 512)
	if err != nil {
		b.Fatal(err)
	}
	h := NewHasher(p, nil)
	data := make([]byte, 938)
	for i := range data {
		data[i] = byte(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Hash(k, data)
	}
}

func BenchmarkHash256(b *testing.B) {
	p, err := GenerateParams(nil, 256)
	if err != nil {
		b.Fatal(err)
	}
	k, err := GeneratePrimeKey(nil, 256)
	if err != nil {
		b.Fatal(err)
	}
	h := NewHasher(p, nil)
	data := make([]byte, 938)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Hash(k, data)
	}
}

// TestEmbedResidueIsModulusSized: embeddings are cached for rounds by
// every node that stores the update, so the residue must not carry the
// update-sized backing array math/big gives a remainder.
func TestEmbedResidueIsModulusSized(t *testing.T) {
	rnd := rand.New(rand.NewSource(31))
	for _, bits := range []int{128, 512} {
		m := testModulus(rnd, bits)
		h := hasherFor(t, m)
		data := make([]byte, 938+24) // a paper-sized update's canonical bytes
		rnd.Read(data)
		k := len(m.Bits())
		for i := 0; i < 3; i++ { // the scratch is reused across calls
			data[0] ^= byte(i + 1)
			v := h.Embed(data)
			if c := cap(v.Bits()); c > k+4 {
				t.Fatalf("bits=%d: residue has %d limbs of capacity, modulus has %d", bits, c, k)
			}
			if want := new(big.Int).Mod(new(big.Int).SetBytes(data), m); v.Cmp(want) != 0 {
				t.Fatalf("bits=%d: Embed = %v, want %v", bits, v, want)
			}
		}
	}
	// A multiple of the modulus embeds as 1, and the result is the caller's.
	h := hasherFor(t, big.NewInt(0xfff1))
	v := h.Embed(big.NewInt(0xfff1 * 3).Bytes())
	if v.Cmp(_one) != 0 {
		t.Fatalf("zero residue embedded as %v", v)
	}
	v.SetInt64(7)
	if _one.Cmp(big.NewInt(1)) != 0 {
		t.Fatal("Embed handed out the package's shared constant")
	}
}
