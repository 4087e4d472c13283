// Quickstart: run a small PAG session, stream for twenty rounds, and
// print delivery and bandwidth statistics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	pag "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// 32 nodes, a 120 kbps stream, small hash parameters for speed.
	session, err := pag.NewSession(pag.SessionConfig{
		Nodes:       32,
		Protocol:    pag.ProtocolPAG,
		StreamKbps:  120,
		ModulusBits: 128,
		Seed:        42,
	})
	if err != nil {
		return err
	}

	// Warm up, then measure steady state.
	session.Run(5)
	session.StartMeasuring()
	session.Run(15)

	bw := session.BandwidthSample()
	fmt.Printf("PAG quickstart: %d nodes, %d kbps stream, %v rounds\n",
		32, 120, session.Round())
	fmt.Printf("  source emitted        %d updates\n", session.Emitted())
	fmt.Printf("  mean continuity       %.3f\n", session.MeanContinuity())
	fmt.Printf("  per-node bandwidth    mean %.0f kbps, p50 %.0f, p99 %.0f\n",
		bw.Mean(), bw.Percentile(50), bw.Percentile(99))
	fmt.Printf("  verdicts raised       %d (all nodes are honest)\n",
		len(session.Verdicts()))

	if session.MeanContinuity() < 0.99 {
		return fmt.Errorf("stream was not continuously delivered")
	}
	return nil
}
