package main

// Crypto microbenchmark recorder: -hhash <path> times the homomorphic
// hash hot paths with testing.Benchmark and records µs/op and allocs/op
// per modulus size, so the multi-exp optimisation's effect is an artifact
// of the repository rather than a claim in a commit message.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/hhash"
)

// hhashResult is one (operation, modulus size) measurement.
type hhashResult struct {
	Op          string  `json:"op"`
	ModulusBits int     `json:"modulus_bits"`
	Preds       int     `json:"preds,omitempty"`
	MicrosPerOp float64 `json:"us_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type hhashReport struct {
	Benchmark   string        `json:"benchmark"`
	NumCPU      int           `json:"num_cpu"`
	GoMaxProcs  int           `json:"gomaxprocs"`
	PrimeBits   int           `json:"prime_bits"`
	GeneratedAt string        `json:"generated_at"`
	Results     []hhashResult `json:"results"`
}

// cryptoBench builds a j-predecessor monitor-verification instance at the
// given modulus size (fixed seed: runs are comparable across commits).
func cryptoBench(modBits, primeBits, preds int) (*hhash.Hasher, []*big.Int, []hhash.Key, *big.Int, error) {
	rnd := rand.New(rand.NewSource(42))
	params, err := hhash.GenerateParams(rnd, modBits)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	h := hhash.NewHasher(params, nil)
	primes := make([]hhash.Key, preds)
	atts := make([]*big.Int, preds)
	for j := range primes {
		if primes[j], err = hhash.GeneratePrimeKey(rnd, primeBits); err != nil {
			return nil, nil, nil, nil, err
		}
		atts[j] = h.Hash(primes[j], []byte(fmt.Sprintf("served set %d", j)))
	}
	rems := make([]hhash.Key, preds)
	ack := h.Identity()
	for j := range primes {
		rems[j] = hhash.OneKey()
		for i := range primes {
			if i != j {
				rems[j] = rems[j].Mul(primes[i])
			}
		}
		ack = h.Combine(ack, h.Lift(atts[j], rems[j]))
	}
	return h, atts, rems, ack, nil
}

// record times fn three times and keeps the fastest: on a shared box the
// slow runs measure the neighbours, and the rows are compared across
// commits recorded hours apart.
func record(report *hhashReport, op string, modBits, preds int, fn func(b *testing.B)) {
	nsPerOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	r := testing.Benchmark(fn)
	for i := 0; i < 2; i++ {
		if again := testing.Benchmark(fn); nsPerOp(again) < nsPerOp(r) {
			r = again
		}
	}
	report.Results = append(report.Results, hhashResult{
		Op:          op,
		ModulusBits: modBits,
		Preds:       preds,
		// To a tenth of a nanosecond: a Montgomery kernel runs in tens.
		MicrosPerOp: math.Round(nsPerOp(r)*10) / 1e4,
		AllocsPerOp: r.AllocsPerOp(),
	})
}

func recordHHashBench(path string) error {
	const primeBits = 48
	const preds = 4
	report := hhashReport{
		Benchmark:   "hhash",
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		PrimeBits:   primeBits,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	for _, modBits := range []int{128, 256, 512} {
		h, atts, rems, ack, err := cryptoBench(modBits, primeBits, preds)
		if err != nil {
			return fmt.Errorf("hhash bench setup at %d bits: %w", modBits, err)
		}
		// One Montgomery multiplication and squaring — what every row below
		// is made of — on the kernels this machine dispatches to and on the
		// portable Go ones (equal where no assembly kernel exists: off
		// amd64, without ADX, and at 128 bits everywhere).
		for _, portable := range []bool{false, true} {
			suffix := ""
			if portable {
				suffix = "_portable"
			}
			mul, sqr, err := hhash.MontgomeryOps(h.Params().Modulus(), portable)
			if err != nil {
				return fmt.Errorf("hhash bench kernels at %d bits: %w", modBits, err)
			}
			for _, op := range []struct {
				name string
				fn   func()
			}{{"mont_mul", mul}, {"mont_sqr", sqr}} {
				record(&report, op.name+suffix, modBits, 0, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						op.fn()
					}
				})
			}
		}
		v := h.Embed([]byte("the update payload under benchmark"))
		key := rems[0].Mul(hhash.OneKey())
		record(&report, "lift", modBits, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Lift(v, key)
			}
		})
		// The buffermap's shape (§V-D): one embedding under fresh primes of
		// the session's PrimeBits (= the modulus size by default) — on the
		// generic ladder, on the embedding's comb table, and the first lift
		// of a fresh base, which builds the table before using it.
		prime, err := hhash.GeneratePrimeKey(rand.New(rand.NewSource(43)), modBits)
		if err != nil {
			return fmt.Errorf("hhash bench prime at %d bits: %w", modBits, err)
		}
		record(&report, "lift_prime", modBits, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Lift(v, prime)
			}
		})
		fixed := hhash.NewFixedBase(v, modBits)
		h.LiftFixed(fixed, prime)
		record(&report, "lift_fixed", modBits, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.LiftFixed(fixed, prime)
			}
		})
		record(&report, "lift_fixed_table_build_and_lift", modBits, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.LiftFixed(hhash.NewFixedBase(v, modBits), prime)
			}
		})
		record(&report, "verify_forwarding_multiexp", modBits, preds, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ok, err := h.VerifyForwarding(atts, rems, ack); err != nil || !ok {
					b.Fatalf("verification failed: ok=%v err=%v", ok, err)
				}
			}
		})
		exps := make([]*big.Int, len(rems))
		for i, r := range rems {
			exps[i] = r.Exponent()
		}
		record(&report, "multiexp", modBits, preds, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := h.MultiExp(atts, exps); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The prime search's last word on a candidate, on a prime (every
		// stage runs): the search's own Baillie-PSW test against the
		// math/big call it replaced.
		if modBits != 256 {
			p := prime.Exponent()
			record(&report, "prime_final_check_mathbig", modBits, 0, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if !p.ProbablyPrime(1) {
						b.Fatal("reference prime rejected")
					}
				}
			})
			record(&report, "prime_final_check", modBits, 0, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if !hhash.IsProbablePrime(p) {
						b.Fatal("reference prime rejected")
					}
				}
			})
		}
		fmt.Fprintf(os.Stderr, "pag-bench: hhash %d-bit modulus done\n", modBits)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		os.Stdout.Write(data)
		return nil
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pag-bench: wrote %s\n", path)
	return nil
}
