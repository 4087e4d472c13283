package pag

import (
	"fmt"
	"runtime"
	"testing"
)

// Engine benchmarks: one worker (inline) against GOMAXPROCS (sharded) at
// the paper's deployment scale (N=432) and at a third of it (N=144). One
// benchmark iteration is one simulated round in steady state. The 128-bit
// modulus keeps a single round affordable while preserving the workload
// shape (modexp-dominated node steps); absolute kbps differ from the
// paper's 512-bit setting but the inline/sharded ratio does not.
//
// Run with:
//
//	go test -bench BenchmarkEngine -benchtime 5x -run ^$ .
func benchmarkEngine(b *testing.B, nodes, workers int) {
	s, err := NewSession(SessionConfig{
		Nodes:       nodes,
		StreamKbps:  60,
		ModulusBits: 128,
		Seed:        1,
		Workers:     workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Run(2) // warm-up: reach steady-state forwarding
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(1)
	}
}

func BenchmarkEngine(b *testing.B) {
	for _, nodes := range []int{144, 432} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("N=%d/workers=%d", nodes, workers), func(b *testing.B) {
				benchmarkEngine(b, nodes, workers)
			})
		}
	}
}
