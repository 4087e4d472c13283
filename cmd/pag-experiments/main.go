// Command pag-experiments regenerates the tables and figures of the PAG
// paper's evaluation (§VII).
//
// Usage:
//
//	pag-experiments -exp all
//	pag-experiments -exp fig7 -nodes 432 -stream 300
//	pag-experiments -exp table2
//	pag-experiments -exp cliff
//	pag-experiments -exp fig10
//	pag-experiments -exp proverif
//
// Experiments: fig7, fig8, fig9, fig10, table1, table2, churn, cliff,
// proverif, all. table2 appends a measured continuity sweep (the queued
// link model under the capacity-cliff scenario) to the paper's analytic
// table; cliff is the full measured sweep across protocols. fig9 appends
// the curve measured on one box (full sessions to N=16384, then 64-node
// sessions forced to the fanout and forwarding TTL of N=10^3…10^6),
// always at 60 kbps and 128 bits; the -nodes, -stream, -rounds and
// -modulus flags do not reach those rows.
// -quick shrinks system sizes and rates for a fast pass.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp     = flag.String("exp", "all", "experiment id: fig7|fig8|fig9|fig10|table1|table2|churn|cliff|proverif|all")
		nodes   = flag.Int("nodes", 0, "simulated system size (default 48; paper deployment used 432)")
		stream  = flag.Int("stream", 0, "stream bitrate in kbps (default 300)")
		rounds  = flag.Int("rounds", 0, "measured rounds (default 20)")
		modBits = flag.Int("modulus", 0, "homomorphic modulus bits (default 512)")
		quick   = flag.Bool("quick", false, "fast profile: small system, low rate, 128-bit modulus")
		seed    = flag.Uint64("seed", 1, "random seed")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0),
			"round-engine workers (0 or 1 steps inline, more shard the nodes; results are byte-identical either way)")
	)
	flag.Parse()

	opt := experiments.Options{
		Nodes:         *nodes,
		StreamKbps:    *stream,
		MeasureRounds: *rounds,
		ModulusBits:   *modBits,
		Quick:         *quick,
		Seed:          *seed,
		Workers:       *workers,
	}

	runners := map[string]func(experiments.Options) (experiments.Result, error){
		"fig7":     experiments.Fig7,
		"fig8":     experiments.Fig8,
		"fig9":     experiments.Fig9,
		"fig10":    experiments.Fig10,
		"table1":   experiments.Table1,
		"table2":   experiments.Table2,
		"churn":    experiments.ChurnStudy,
		"cliff":    experiments.Cliff,
		"proverif": experiments.ProVerif,
	}

	var results []experiments.Result
	if *exp == "all" {
		rs, err := experiments.All(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pag-experiments:", err)
			return 1
		}
		results = rs
	} else {
		runner, ok := runners[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "pag-experiments: unknown experiment %q\n", *exp)
			flag.Usage()
			return 2
		}
		r, err := runner(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pag-experiments:", err)
			return 1
		}
		results = []experiments.Result{r}
	}

	for _, r := range results {
		fmt.Printf("==== %s: %s ====\n\n%s\n", r.ID, r.Title, r.Text)
	}
	return 0
}
