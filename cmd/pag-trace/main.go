// Command pag-trace analyzes the structured round-event journals (JSONL)
// the -trace flag of pag-scenario and pag-node writes: it reassembles the
// §V-A exchange spans by their exchange id, aggregates outcome and
// latency distributions, reconstructs accusation→verdict→eviction blame
// chains, and turns a journal back into a runnable scenario script.
//
// Usage:
//
//	pag-trace stats run.jsonl [more.jsonl...]      # outcome/latency/timeline
//	pag-trace stats -json run.jsonl
//	pag-trace blame -node 16 run.jsonl             # why was node 16 evicted?
//	pag-trace replay run.jsonl                     # emit the replay script
//	pag-trace replay -verify run.jsonl             # re-run and compare digests
//
// Several journal files merge by exchange id (a multi-process pag-node
// deployment writes one journal per process); replay needs the
// single-process journal a pag-scenario run writes, because it segments
// the scenario-event stream by the run_config record of each protocol.
//
// replay prints the reconstructed scenario script (the original script
// with churn-generated and auto-resolved events pinned to their recorded
// targets) to stdout; -verify instead re-runs the script in-process with
// the journal's recorded session knobs and compares the fresh report's
// digest against the journal's report_digest record — equal digests prove
// the reconstruction reproduces the run's every measured result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	pag "repro"
	"repro/internal/model"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func usage() int {
	fmt.Fprintln(os.Stderr, "usage: pag-trace <stats|blame|replay> [flags] journal.jsonl [more.jsonl...]")
	return 2
}

func run(args []string) int {
	if len(args) == 0 {
		return usage()
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "stats":
		return runStats(rest)
	case "blame":
		return runBlame(rest)
	case "replay":
		return runReplay(rest)
	default:
		fmt.Fprintf(os.Stderr, "pag-trace: unknown command %q\n", cmd)
		return usage()
	}
}

func load(fs *flag.FlagSet) (*trace.Journal, int) {
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "pag-trace: no journal files")
		return nil, 2
	}
	j, err := trace.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pag-trace:", err)
		return nil, 1
	}
	return j, 0
}

func runStats(args []string) int {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the stats as JSON instead of text")
	fs.Parse(args)
	j, code := load(fs)
	if j == nil {
		return code
	}
	st := j.ComputeStats()
	if *asJSON {
		out, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "pag-trace:", err)
			return 1
		}
		fmt.Printf("%s\n", out)
	} else {
		st.WriteText(os.Stdout)
	}
	if len(st.Malformed) > 0 {
		return 1
	}
	return 0
}

func runBlame(args []string) int {
	fs := flag.NewFlagSet("blame", flag.ExitOnError)
	node := fs.Uint("node", 0, "the accused node id to reconstruct the chain for")
	asJSON := fs.Bool("json", false, "emit the chain as JSON instead of text")
	fs.Parse(args)
	if *node == 0 {
		fmt.Fprintln(os.Stderr, "pag-trace: blame needs -node")
		return 2
	}
	j, code := load(fs)
	if j == nil {
		return code
	}
	b := j.BlameChain(model.NodeID(*node))
	if *asJSON {
		out, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "pag-trace:", err)
			return 1
		}
		fmt.Printf("%s\n", out)
	} else {
		b.WriteText(os.Stdout)
	}
	return 0
}

func runReplay(args []string) int {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	verify := fs.Bool("verify", false, "re-run the reconstructed script and compare report digests")
	netKind := fs.String("net", "", "transport for -verify: mem or tcp (default: the journal's recorded transport)")
	fs.Parse(args)
	j, code := load(fs)
	if j == nil {
		return code
	}
	spec, err := j.Replay()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pag-trace:", err)
		return 1
	}
	if !*verify {
		os.Stdout.Write(spec.JSON())
		return 0
	}
	if spec.Digest == "" {
		fmt.Fprintln(os.Stderr, "pag-trace: journal has no report_digest record; cannot verify")
		return 1
	}

	cfg := pag.SessionConfig{
		Nodes:       spec.Nodes,
		StreamKbps:  spec.StreamKbps,
		ModulusBits: spec.ModulusBits,
		Seed:        spec.Seed,
		Workers:     spec.Workers,
	}
	transportKind := spec.Transport
	if *netKind != "" {
		transportKind = *netKind
	}
	// Sockets step inline whatever worker count the recorded run used.
	if err := cfg.UseNetwork(transportKind); err != nil {
		fmt.Fprintln(os.Stderr, "pag-trace:", err)
		return 2
	}
	var protocols []pag.Protocol
	for _, name := range spec.Protocols {
		p, err := pag.ParseProtocol(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pag-trace: journal:", err)
			return 1
		}
		protocols = append(protocols, p)
	}

	report, err := pag.RunScenarioReport(cfg, spec.Scenario, protocols, spec.Threshold)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pag-trace: replay run:", err)
		return 1
	}
	got := report.Digest()
	if got != spec.Digest {
		fmt.Fprintf(os.Stderr, "pag-trace: REPLAY DIVERGED\n  recorded %s\n  replayed %s\n", spec.Digest, got)
		return 1
	}
	fmt.Printf("replay verified: digest %s (%d protocols, %d scripted events, %s transport)\n",
		got, len(protocols), len(spec.Scenario.Events), transportName(transportKind))
	return 0
}

func transportName(k string) string {
	if k == "" {
		return "mem"
	}
	return k
}
