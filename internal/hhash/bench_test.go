package hhash

import (
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"testing"
)

// benchSetup builds a hasher plus a j-predecessor verification instance
// (attestations, remainders, matching ack) at the given parameter sizes,
// from a fixed seed so runs are comparable.
func benchSetup(b *testing.B, modBits, primeBits, preds int) (*Hasher, []*big.Int, []Key, *big.Int) {
	b.Helper()
	rnd := rand.New(rand.NewSource(42))
	params, err := GenerateParams(rnd, modBits)
	if err != nil {
		b.Fatal(err)
	}
	h := NewHasher(params, nil)

	primes := make([]Key, preds)
	atts := make([]*big.Int, preds)
	for j := range primes {
		if primes[j], err = GeneratePrimeKey(rnd, primeBits); err != nil {
			b.Fatal(err)
		}
		atts[j] = h.Hash(primes[j], []byte(fmt.Sprintf("served set %d", j)))
	}
	rems := make([]Key, preds)
	full := OneKey()
	for j := range primes {
		full = full.Mul(primes[j])
	}
	ack := h.Identity()
	for j := range primes {
		rems[j] = OneKey()
		for i := range primes {
			if i != j {
				rems[j] = rems[j].Mul(primes[i])
			}
		}
		ack = h.Combine(ack, h.Lift(atts[j], rems[j]))
	}
	return h, atts, rems, ack
}

func BenchmarkLift(b *testing.B) {
	for _, bits := range []int{128, 256, 512} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			rnd := rand.New(rand.NewSource(42))
			params, err := GenerateParams(rnd, bits)
			if err != nil {
				b.Fatal(err)
			}
			h := NewHasher(params, nil)
			key, err := GeneratePrimeKey(rnd, bits)
			if err != nil {
				b.Fatal(err)
			}
			v := h.Embed([]byte("the update payload under benchmark"))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Lift(v, key)
			}
		})
	}
}

// BenchmarkCombine compares Combine (two Montgomery multiplications)
// against the math/big Mul + Mod it replaced.
func BenchmarkCombine(b *testing.B) {
	for _, bits := range []int{128, 512} {
		rnd := rand.New(rand.NewSource(42))
		params, err := GenerateParams(rnd, bits)
		if err != nil {
			b.Fatal(err)
		}
		h := NewHasher(params, nil)
		x, y := new(big.Int).Rand(rnd, params.m), new(big.Int).Rand(rnd, params.m)
		b.Run(fmt.Sprintf("mont/bits=%d", bits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Combine(x, y)
			}
		})
		b.Run(fmt.Sprintf("big/bits=%d", bits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v := new(big.Int).Mul(x, y)
				v.Mod(v, params.m)
			}
		})
	}
}

// BenchmarkVerifyForwarding compares the naive per-attestation loop
// against the simultaneous multi-exponentiation path at the paper's
// 512-bit parameters — the headline acceptance number is multiexp vs
// naive at preds=4.
func BenchmarkVerifyForwarding(b *testing.B) {
	for _, preds := range []int{4, 8} {
		for _, bits := range []int{128, 512} {
			h, atts, rems, ack := benchSetup(b, bits, bits, preds)
			b.Run(fmt.Sprintf("naive/preds=%d/bits=%d", preds, bits), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ok, err := h.verifyForwardingNaive(atts, rems, ack)
					if err != nil || !ok {
						b.Fatalf("ok=%v err=%v", ok, err)
					}
				}
			})
			b.Run(fmt.Sprintf("multiexp/preds=%d/bits=%d", preds, bits), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ok, err := h.VerifyForwarding(atts, rems, ack)
					if err != nil || !ok {
						b.Fatalf("ok=%v err=%v", ok, err)
					}
				}
			})
		}
	}
}

// BenchmarkVerifyBatch times the folded two-check equation of the
// receiver-side attestation verification (maybeAck's shape) against the
// two independent lifts it replaces.
func BenchmarkVerifyBatch(b *testing.B) {
	for _, bits := range []int{128, 512} {
		rnd := rand.New(rand.NewSource(42))
		params, err := GenerateParams(rnd, bits)
		if err != nil {
			b.Fatal(err)
		}
		h := NewHasher(params, nil)
		prime, err := GeneratePrimeKey(rnd, bits)
		if err != nil {
			b.Fatal(err)
		}
		exp := h.Embed([]byte("expiring product"))
		fwd := h.Embed([]byte("forwardable product"))
		checks := []Check{
			{Base: exp, Key: prime, Want: h.Lift(exp, prime)},
			{Base: fwd, Key: prime, Want: h.Lift(fwd, prime)},
		}
		b.Run(fmt.Sprintf("lifts/bits=%d", bits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if h.Lift(checks[0].Base, prime).Cmp(checks[0].Want) != 0 ||
					h.Lift(checks[1].Base, prime).Cmp(checks[1].Want) != 0 {
					b.Fatal("mismatch")
				}
			}
		})
		b.Run(fmt.Sprintf("batched/bits=%d", bits), func(b *testing.B) {
			coeffs := rand.New(rand.NewSource(7))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ok, _ := h.VerifyBatch(coeffs, checks); !ok {
					b.Fatal("batch rejected a valid set")
				}
			}
		})
	}
}

// BenchmarkTags times one exchange's buffermap batch per op, reported per
// tag: 128- and 512-bit moduli, batches of 1, 16, 119 (the mean batch at
// the paper's sizes) and 200 embeddings.
func BenchmarkTags(b *testing.B) {
	for _, bits := range []int{128, 512} {
		rnd := rand.New(rand.NewSource(42))
		params, err := GenerateParams(rnd, bits)
		if err != nil {
			b.Fatal(err)
		}
		h := NewHasher(params, nil)
		key, err := GeneratePrimeKey(rnd, bits)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range []int{1, 16, 119, 200} {
			embeds := make([]*big.Int, n)
			for i := range embeds {
				embeds[i] = new(big.Int).Rand(rnd, params.m)
			}
			dst := make([]uint64, n)
			b.Run(fmt.Sprintf("bits=%d/n=%d", bits, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					h.Tags(dst, embeds, key)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/tag")
			})
		}
	}
}

func BenchmarkProductEmbed(b *testing.B) {
	for _, items := range []int{8, 32} {
		b.Run(fmt.Sprintf("items=%d", items), func(b *testing.B) {
			rnd := rand.New(rand.NewSource(42))
			params, err := GenerateParams(rnd, 512)
			if err != nil {
				b.Fatal(err)
			}
			h := NewHasher(params, nil)
			data := make([][]byte, items)
			for i := range data {
				data[i] = make([]byte, 1024)
				rnd.Read(data[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ProductEmbed(data, nil)
			}
		})
	}
}

// BenchmarkPrimeFinalCheck times the prime search's last word on a
// candidate, on an accepted prime (both stages run): the search's own
// Baillie-PSW test, scratch included, against the math/big call it
// replaced.
func BenchmarkPrimeFinalCheck(b *testing.B) {
	for _, bits := range []int{128, 512} {
		p, err := GeneratePrimeKey(rand.New(rand.NewSource(43)), bits)
		if err != nil {
			b.Fatal(err)
		}
		n := p.Exponent()
		be := n.Bytes()
		for _, check := range []struct {
			name string
			fn   func() bool
		}{
			{"mathbig", func() bool { return n.ProbablyPrime(1) }},
			{"search", func() bool { return newPrimeSearch(bits).accepts(be) }},
		} {
			b.Run(fmt.Sprintf("%s/bits=%d", check.name, bits), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if !check.fn() {
						b.Fatal("accepted prime rejected")
					}
				}
			})
		}
	}
}

// BenchmarkGeneratePrime compares the prime search against the bare walk
// it must agree with (every candidate straight to ProbablyPrime(1)) —
// the dominant per-exchange cost off the driver thread.
func BenchmarkGeneratePrime(b *testing.B) {
	for _, bits := range []int{128, 512} {
		for _, gen := range []struct {
			name string
			fn   func(io.Reader, int) (Key, error)
		}{{"reference", referencePregenPrime}, {"search", GeneratePrimeKey}} {
			b.Run(fmt.Sprintf("%s/bits=%d", gen.name, bits), func(b *testing.B) {
				rnd := rand.New(rand.NewSource(42))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := gen.fn(rnd, bits); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
