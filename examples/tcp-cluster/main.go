// TCP cluster: the deployment analogue of the paper's Grid'5000 experiment
// (§VII-A) — real PAG nodes exchanging over TCP on the loopback interface,
// all inside one process for convenience (cmd/pag-node runs one node per
// process for a genuine multi-machine deployment).
//
//	go run ./examples/tcp-cluster            # 9 nodes, 8 rounds
//	go run ./examples/tcp-cluster -nodes 16
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hhash"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/pki"
	"repro/internal/streaming"
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

func run(n, rounds, streamKbps int) error {
	// Reserve loopback addresses.
	book := make(map[model.NodeID]string, n)
	var listeners []net.Listener
	for i := 1; i <= n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		listeners = append(listeners, ln)
		book[model.NodeID(i)] = ln.Addr().String()
	}
	for _, ln := range listeners {
		_ = ln.Close()
	}

	ids := make([]model.NodeID, 0, n)
	for id := range book {
		ids = append(ids, id)
	}
	dir, err := membership.New(ids, membership.Config{Seed: 5, Fanout: 3, Monitors: 3})
	if err != nil {
		return err
	}
	suite := pki.NewFastSuite()
	params, err := hhash.GenerateParams(nil, 128)
	if err != nil {
		return err
	}

	tcp := transport.NewTCPNet(book)
	defer func() { _ = tcp.Close() }()

	nodes := make(map[model.NodeID]*core.Node, n)
	players := make(map[model.NodeID]*streaming.Player, n)
	identities := make(map[model.NodeID]pki.Identity, n)
	var verdictMu sync.Mutex
	var verdicts []core.Verdict

	for _, id := range ids {
		identity, err := suite.NewIdentity(id)
		if err != nil {
			return err
		}
		identities[id] = identity
		player := streaming.NewPlayer(0)
		players[id] = player

		var node *core.Node
		ep, err := tcp.Register(id, func(m transport.Message) { node.HandleMessage(m) })
		if err != nil {
			return err
		}
		node, err = core.NewNode(core.Config{
			ID:         id,
			Suite:      suite,
			Identity:   identity,
			HashParams: params,
			Directory:  dir,
			Endpoint:   ep,
			Sources:    []model.NodeID{1},
			IsSource:   id == 1,
			PrimeBits:  128,
			OnDeliver:  player.OnDeliver,
			Verdicts: func(v core.Verdict) {
				verdictMu.Lock()
				verdicts = append(verdicts, v)
				verdictMu.Unlock()
			},
		})
		if err != nil {
			return err
		}
		nodes[id] = node
	}

	// Short forwarding TTL so deliveries land within the demo's rounds.
	source, err := streaming.NewSource(0, identities[1], nodes[1], streamKbps, 0, 4)
	if err != nil {
		return err
	}

	fmt.Printf("tcp-cluster: %d nodes over loopback TCP, %d rounds, %d kbps\n",
		n, rounds, streamKbps)
	// Phase-synchronised rounds across goroutine-free nodes: the handlers
	// run on TCP reader goroutines, so between phases we let traffic
	// settle briefly (a wall-clock analogue of the simulator's
	// deliver-until-quiescent).
	const settle = 60 * time.Millisecond
	for r := model.Round(1); r <= model.Round(rounds); r++ {
		if err := source.Tick(r); err != nil {
			return err
		}
		forAll(ids, func(id model.NodeID) { nodes[id].BeginRound(r) })
		time.Sleep(settle)
		// The exchange slots BeginRound did not open (slot 0 is its).
		for k := 1; k < dir.Fanout(); k++ {
			forAll(ids, func(id model.NodeID) { nodes[id].OpenSlot(r, k) })
			time.Sleep(settle)
		}
		forAll(ids, func(id model.NodeID) { nodes[id].MidRound(r) })
		time.Sleep(settle)
		forAll(ids, func(id model.NodeID) { nodes[id].EndRound(r) })
		time.Sleep(settle)
		forAll(ids, func(id model.NodeID) { nodes[id].CloseRound(r) })
	}

	delivered := uint64(0)
	for id, p := range players {
		if id != 1 {
			delivered += p.Delivered()
		}
	}
	fmt.Printf("  source emitted %d updates; clients delivered %d in total\n",
		source.Emitted(), delivered)
	verdictMu.Lock()
	fmt.Printf("  verdicts: %d\n", len(verdicts))
	verdictMu.Unlock()
	if delivered == 0 {
		return fmt.Errorf("nothing was delivered over TCP")
	}
	return nil
}

func forAll(ids []model.NodeID, f func(model.NodeID)) {
	for _, id := range ids {
		f(id)
	}
}
