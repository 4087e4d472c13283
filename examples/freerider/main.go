// Freerider: inject the paper's selfish deviations (§II-A, §VI-B) into a
// PAG session and watch the monitoring infrastructure convict them — the
// accountability half of the paper's contribution.
//
//	go run ./examples/freerider
package main

import (
	"fmt"
	"maps"
	"os"
	"slices"

	pag "repro"
	"repro/internal/core"
	"repro/internal/judicial"
	"repro/internal/model"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "freerider:", err)
		os.Exit(1)
	}
}

func run() error {
	// Four different selfish profiles in one 32-node session.
	cheats := map[model.NodeID]core.Behavior{
		5:  {DropUpdates: 1},                  // drops one update per serve
		9:  {SkipServeEvery: 1},               // never uploads at all
		13: {NoAck: true, IgnoreProbes: true}, // never acknowledges
		17: {SkipMonitorReport: true},         // hides exchanges from monitors
	}
	session, err := pag.NewSession(pag.SessionConfig{
		Nodes:        32,
		Protocol:     pag.ProtocolPAG,
		StreamKbps:   120,
		ModulusBits:  128,
		Seed:         11,
		PAGBehaviors: cheats,
	})
	if err != nil {
		return err
	}
	session.Run(12)

	fmt.Println("selfish profiles under test:")
	fmt.Println("  n5  drops updates from its serves   (R2 violation)")
	fmt.Println("  n9  never contacts its successors   (free-rides on upload)")
	fmt.Println("  n13 never acknowledges              (R1 violation)")
	fmt.Println("  n17 hides exchanges from monitors   (obligation dodging)")
	fmt.Println()

	convicted := map[model.NodeID]map[judicial.Kind]int{}
	falsePositives := 0
	for _, v := range session.Verdicts() {
		if _, isCheat := cheats[v.Accused]; !isCheat {
			falsePositives++
			continue
		}
		if convicted[v.Accused] == nil {
			convicted[v.Accused] = map[judicial.Kind]int{}
		}
		convicted[v.Accused][v.Kind]++
	}

	for _, id := range []model.NodeID{5, 9, 13, 17} {
		if len(convicted[id]) == 0 {
			return fmt.Errorf("cheat %v escaped detection", id)
		}
		fmt.Printf("node %-4v convicted:", id)
		for _, kind := range slices.Sorted(maps.Keys(convicted[id])) {
			fmt.Printf(" %v×%d", kind, convicted[id][kind])
		}
		fmt.Println()
	}
	fmt.Printf("\nfalse positives against honest nodes: %d\n", falsePositives)
	fmt.Printf("total verdicts: %d — every deviation detected, honest nodes untouched\n",
		len(session.Verdicts()))
	if falsePositives > 0 {
		return fmt.Errorf("honest nodes were wrongly convicted")
	}
	return nil
}
