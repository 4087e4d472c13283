package hhash

import (
	"bytes"
	"crypto/rand"
	"io"
	"math/big"
	mrand "math/rand"
	"testing"

	"repro/internal/obs"
)

// ---------------------------------------------------------------------------
// Multi-exponentiation vs the naive loop
// ---------------------------------------------------------------------------

// TestMultiExpMatchesNaive checks the interleaved windowed ladder against a
// plain per-base Exp loop across modulus widths spanning all window sizes,
// both parities (odd → Montgomery engine, even → Barrett engine), zero
// exponents, and varying base counts.
func TestMultiExpMatchesNaive(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(9))
	for _, bits := range []int{16, 64, 128, 200, 256, 512, 600, 1024} {
		for trial := 0; trial < 8; trial++ {
			m := new(big.Int).Rand(rnd, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
			if m.BitLen() < 2 {
				continue
			}
			m.SetBit(m, 0, uint(trial%2)) // alternate even/odd modulus
			params, err := ParamsFromModulus(m)
			if err != nil {
				continue
			}
			h := NewHasher(params, nil)
			n := 1 + rnd.Intn(6)
			bases := make([]*big.Int, n)
			exps := make([]*big.Int, n)
			want := big.NewInt(1)
			tmp := new(big.Int)
			for i := 0; i < n; i++ {
				bases[i] = new(big.Int).Rand(rnd, m)
				width := rnd.Intn(3 * bits)
				exps[i] = new(big.Int).Rand(rnd, new(big.Int).Lsh(big.NewInt(1), uint(width)))
				if trial == 0 && i == 0 {
					exps[i] = big.NewInt(0)
				}
				tmp.Exp(bases[i], exps[i], m)
				want.Mul(want, tmp).Mod(want, m)
			}
			got, err := h.MultiExp(bases, exps)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("bits=%d trial=%d odd=%v: MultiExp diverges from naive product",
					bits, trial, m.Bit(0) == 1)
			}
		}
	}
}

// TestVerifyForwardingMatchesNaive drives random attestation sets through
// both the multi-exp monitor equation and the pre-optimisation reference.
func TestVerifyForwardingMatchesNaive(t *testing.T) {
	params := testParams(t)
	h := NewHasher(params, nil)
	rnd := mrand.New(mrand.NewSource(31))

	for trial := 0; trial < 30; trial++ {
		preds := 1 + rnd.Intn(6)
		atts := make([]*big.Int, preds)
		rems := make([]Key, preds)
		keys := make([]Key, preds)
		for i := range keys {
			k, err := GeneratePrimeKey(rnd, 48)
			if err != nil {
				t.Fatal(err)
			}
			keys[i] = k
		}
		ack := h.Identity()
		for i := range atts {
			content := make([]byte, 16)
			rnd.Read(content)
			v := h.Embed(content)
			atts[i] = h.Lift(v, keys[i])
			rem := OneKey()
			for o, k := range keys {
				if o != i {
					rem = rem.Mul(k)
				}
			}
			rems[i] = rem
			full := rem.Mul(keys[i])
			ack = h.Combine(ack, h.Lift(v, full))
		}
		if trial%3 == 2 { // corrupt the ack in a third of the trials
			ack = new(big.Int).Add(ack, big.NewInt(1))
			ack.Mod(ack, params.Modulus())
		}
		fast, errF := h.VerifyForwarding(atts, rems, ack)
		slow, errS := h.verifyForwardingNaive(atts, rems, ack)
		if (errF == nil) != (errS == nil) {
			t.Fatalf("trial %d: error disagreement: %v vs %v", trial, errF, errS)
		}
		if fast != slow {
			t.Fatalf("trial %d: VerifyForwarding=%v, naive=%v", trial, fast, slow)
		}
	}
}

// ---------------------------------------------------------------------------
// Batched verification
// ---------------------------------------------------------------------------

func randomChecks(t *testing.T, h *Hasher, rnd *mrand.Rand, n int) []Check {
	t.Helper()
	checks := make([]Check, n)
	for i := range checks {
		content := make([]byte, 12)
		rnd.Read(content)
		k, err := GeneratePrimeKey(rnd, 48)
		if err != nil {
			t.Fatal(err)
		}
		base := h.Embed(content)
		checks[i] = Check{Base: base, Key: k, Want: h.Lift(base, k)}
	}
	return checks
}

// TestVerifyBatchAcceptIffEachAccepts: the folded equation accepts exactly
// when every individual check accepts, and on rejection the fallback names
// exactly the corrupted checks.
func TestVerifyBatchAcceptIffEachAccepts(t *testing.T) {
	params := testParams(t)
	h := NewHasher(params, nil)
	rnd := mrand.New(mrand.NewSource(53))

	for trial := 0; trial < 40; trial++ {
		n := 1 + rnd.Intn(5)
		checks := randomChecks(t, h, rnd, n)
		var wantBad []int
		for i := range checks {
			if rnd.Intn(3) == 0 {
				w := new(big.Int).Add(checks[i].Want, big.NewInt(1))
				w.Mod(w, params.Modulus())
				checks[i].Want = w
				wantBad = append(wantBad, i)
			}
		}
		ok, bad := h.VerifyBatch(rand.Reader, checks)
		if ok != (len(wantBad) == 0) {
			t.Fatalf("trial %d: batch ok=%v with %d corrupted checks", trial, ok, len(wantBad))
		}
		if len(bad) != len(wantBad) {
			t.Fatalf("trial %d: blamed %v, corrupted %v", trial, bad, wantBad)
		}
		for i := range bad {
			if bad[i] != wantBad[i] {
				t.Fatalf("trial %d: blamed %v, corrupted %v", trial, bad, wantBad)
			}
		}
	}
}

// TestVerifyBatchFallbacks: degenerate inputs (no coefficient stream, nil
// operands, zero keys) must fall back to per-check verification rather
// than accept or panic, and blame stays exact.
func TestVerifyBatchFallbacks(t *testing.T) {
	params := testParams(t)
	h := NewHasher(params, nil)
	rnd := mrand.New(mrand.NewSource(59))

	checks := randomChecks(t, h, rnd, 3)
	// Exhausted coefficient stream → individual verification, all pass.
	ok, bad := h.VerifyBatch(bytes.NewReader(nil), checks)
	if ok || len(bad) != 0 {
		t.Fatalf("exhausted coeffs: ok=%v bad=%v (all checks valid, fallback must blame none)", ok, bad)
	}
	// Nil Want on one check → that check blamed, others pass.
	checks[1].Want = nil
	ok, bad = h.VerifyBatch(rand.Reader, checks)
	if ok || len(bad) != 1 || bad[0] != 1 {
		t.Fatalf("nil want: ok=%v bad=%v", ok, bad)
	}
	// Zero key → same.
	checks[1] = randomChecks(t, h, rnd, 1)[0]
	checks[2].Key = Key{}
	ok, bad = h.VerifyBatch(rand.Reader, checks)
	if ok || len(bad) != 1 || bad[0] != 2 {
		t.Fatalf("zero key: ok=%v bad=%v", ok, bad)
	}
	// Empty batch is vacuously true.
	if ok, bad := h.VerifyBatch(rand.Reader, nil); !ok || bad != nil {
		t.Fatalf("empty batch: ok=%v bad=%v", ok, bad)
	}
}

// TestVerifyBatchCounterParity: batched and per-check verification must
// record identical hash-op counts and lift observations — the Table I
// accounting must not reveal which mode ran.
func TestVerifyBatchCounterParity(t *testing.T) {
	params := testParams(t)
	rnd := mrand.New(mrand.NewSource(61))

	var batched, unbatched Counter
	hB := NewHasher(params, &batched)
	hU := NewHasher(params, &unbatched)
	spanB := obs.NewRegistry().Histogram("lift", obs.ClassTimed, nil)
	spanU := obs.NewRegistry().Histogram("lift", obs.ClassTimed, nil)
	hB.Instrument(spanB, nil)
	hU.Instrument(spanU, nil)
	// Build the checks with an uncounted hasher so only the verification
	// itself is attributed.
	checks := randomChecks(t, NewHasher(params, nil), rnd, 4)

	hB.VerifyBatch(rand.Reader, checks)
	for _, c := range checks {
		hU.Lift(c.Base, c.Key) // the unbatched path: one Lift per check
	}
	if b, u := batched.HashOps(), unbatched.HashOps(); b != u {
		t.Fatalf("hash-op divergence: batched=%d unbatched=%d", b, u)
	}
	if b, u := spanB.Count(), spanU.Count(); b != u {
		t.Fatalf("lift observation divergence: batched=%d unbatched=%d", b, u)
	}
}

// ---------------------------------------------------------------------------
// Prime pregeneration
// ---------------------------------------------------------------------------

// TestPregenPrimeProperties: every generated key is exactly `bits` long,
// odd, has its top two bits set (length-stable products — the wire format
// depends on it), and passes a full-strength primality test.
func TestPregenPrimeProperties(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(67))
	for _, bits := range []int{8, 17, 48, 64, 127, 128} {
		for trial := 0; trial < 8; trial++ {
			k, err := pregenPrime(rnd, bits)
			if err != nil {
				t.Fatal(err)
			}
			p := k.e
			if p.BitLen() != bits {
				t.Fatalf("bits=%d: got %d-bit prime", bits, p.BitLen())
			}
			if p.Bit(0) != 1 {
				t.Fatalf("bits=%d: even candidate accepted", bits)
			}
			if p.Bit(bits-2) != 1 {
				t.Fatalf("bits=%d: second-highest bit clear", bits)
			}
			if !p.ProbablyPrime(20) {
				t.Fatalf("bits=%d: %v fails ProbablyPrime(20)", bits, p)
			}
		}
	}
}

// TestPrimePoolStreamOrder: the i-th Get returns the i-th prime of the
// stream regardless of how background refills interleave — the property
// the worker-count byte-identity gate rests on.
func TestPrimePoolStreamOrder(t *testing.T) {
	const n = 40
	want := make([]Key, n)
	ref := mrand.New(mrand.NewSource(71))
	for i := range want {
		k, err := pregenPrime(ref, 48)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = k
	}
	pool, err := NewPrimePool(mrand.New(mrand.NewSource(71)), 48, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		if got.e.Cmp(want[i].e) != 0 {
			t.Fatalf("draw %d: pool diverges from direct stream", i)
		}
	}
}

// TestPrimePoolErrorSticky: a failing entropy source poisons the pool
// permanently once its pregenerated queue is exhausted.
func TestPrimePoolErrorSticky(t *testing.T) {
	pool, err := NewPrimePool(failingReader{}, 48, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Get(); err == nil {
		t.Fatal("expected error from failing entropy source")
	}
	if _, err := pool.Get(); err == nil {
		t.Fatal("pool error must be sticky")
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }
