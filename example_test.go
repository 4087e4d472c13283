package pag_test

import (
	"fmt"

	pag "repro"
)

// Example runs a miniature PAG live-streaming session and reports whether
// the stream was continuously delivered and whether any node was convicted
// of misbehaviour (none, since everyone is honest).
func Example() {
	session, err := pag.NewSession(pag.SessionConfig{
		Nodes:       16,
		Protocol:    pag.ProtocolPAG,
		StreamKbps:  60,
		UpdateBytes: 64,  // small chunks keep the example fast
		ModulusBits: 128, // 512 for paper-faithful wire sizes
		Seed:        1,
	})
	if err != nil {
		panic(err)
	}
	session.Run(14)

	fmt.Printf("continuous: %v\n", session.MeanContinuity() > 0.99)
	fmt.Printf("verdicts: %d\n", len(session.Verdicts()))
	// Output:
	// continuous: true
	// verdicts: 0
}

// Example_selfish injects the paper's central selfish deviation — a node
// that forwards only part of what it received — and shows the log-less
// monitoring infrastructure convicting it.
func Example_selfish() {
	session, err := pag.NewSession(pag.SessionConfig{
		Nodes:       16,
		Protocol:    pag.ProtocolPAG,
		StreamKbps:  60,
		UpdateBytes: 64,
		ModulusBits: 128,
		Seed:        1,
		PAGBehaviors: map[pag.NodeID]pag.Behavior{
			7: {DropUpdates: 1},
		},
	})
	if err != nil {
		panic(err)
	}
	session.Run(10)

	convicted := false
	for _, v := range session.Verdicts() {
		if v.Accused == 7 {
			convicted = true
			break
		}
	}
	fmt.Printf("cheat convicted: %v\n", convicted)
	// Output:
	// cheat convicted: true
}
