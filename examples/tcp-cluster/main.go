// TCP cluster: the deployment analogue of the paper's Grid'5000 experiment
// (§VII-A) — a PAG session whose nodes exchange over real TCP sockets on
// the loopback interface, all inside one process and stepped by the
// session's round engine (cmd/pag-node runs one node per process for a
// genuine multi-machine deployment).
//
//	go run ./examples/tcp-cluster            # 9 nodes, 8 rounds
//	go run ./examples/tcp-cluster -nodes 16
package main

import (
	"flag"
	"fmt"
	"os"

	pag "repro"
	"repro/internal/transport"
)

func main() {
	nodes := flag.Int("nodes", 9, "cluster size")
	rounds := flag.Int("rounds", 8, "rounds to run")
	stream := flag.Int("stream", 80, "stream bitrate in kbps")
	flag.Parse()
	if err := run(*nodes, *rounds, *stream); err != nil {
		fmt.Fprintln(os.Stderr, "tcp-cluster:", err)
		os.Exit(1)
	}
}

func run(nodes, rounds, streamKbps int) error {
	session, err := pag.NewSession(pag.SessionConfig{
		Nodes: nodes, StreamKbps: streamKbps, ModulusBits: 128, Seed: 5,
		// Short forwarding TTL so deliveries land within the demo's rounds.
		TTL: 4,
		// Every node listens on its own ephemeral loopback port.
		NewNetwork: func() transport.FaultyNetwork {
			tn := transport.NewTCPNet(nil)
			tn.SetDynamic("127.0.0.1")
			return tn
		},
	})
	if err != nil {
		return err
	}
	defer func() { _ = session.Close() }()
	session.Run(rounds)

	var delivered uint64
	for _, id := range session.Members() {
		if id != pag.SourceID {
			delivered += session.Player(id).Delivered()
		}
	}
	fmt.Printf("tcp-cluster: %d nodes over loopback TCP, %d rounds, %d kbps\n",
		nodes, rounds, streamKbps)
	fmt.Printf("  source emitted %d updates; clients delivered %d in total\n",
		session.Emitted(), delivered)
	fmt.Printf("  verdicts: %d\n", len(session.PAGVerdicts()))
	if delivered == 0 {
		return fmt.Errorf("nothing was delivered over TCP")
	}
	return nil
}
