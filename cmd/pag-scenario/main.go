// Command pag-scenario runs a scripted scenario — churn, network faults,
// adversary schedules — against PAG and AcTinG and emits a
// deterministic JSON report (same scenario + same seed ⇒ byte-identical
// output).
//
// Usage:
//
//	pag-scenario -scenario steady-churn
//	pag-scenario -scenario transient-partition -protocol pag -nodes 24
//	pag-scenario -file myscenario.json -seed 9 > report.json
//	pag-scenario -scenario steady-churn -net tcp   # same script over loopback sockets
//	pag-scenario -scenario flash-crowd -dump       # print the script, don't run
//	pag-scenario -scenario flash-crowd -metrics 127.0.0.1:0 -linger 30s
//	pag-scenario -list
//
// Canned scenarios: flash-crowd, steady-churn, transient-partition,
// delayed-coalition, rejoin-attack, capacity-cliff. A scenario file is
// the same JSON the -dump flag prints; an "eviction" block in the script
// arms the accountability plane's punishment loop (convictions →
// membership eviction → id quarantine), and the report then carries the
// eviction and rejoin-rejection logs per protocol and per epoch.
//
// Upload caps ("set_queue_cap" events) are a queued link
// model: over-budget messages carry over to later rounds, paced by the
// cap, and expire past the playout deadline. The report separates the
// resulting queue pressure (messages_deferred, messages_expired, and the
// per-epoch deferred/expired/queue_depth fields) from dead-link drops
// (messages_dropped; scripted "set_loss" is retransmitted, not dropped);
// capacity-cliff sweeps a population-wide cap toward
// the stream rate — caps sized as multiples of the default -stream 60 —
// and slices one measurement epoch per capacity level.
//
// -net selects the transport: "mem" (default) runs the deterministic
// in-memory network, while "tcp" runs every node of the session over real
// loopback sockets with the same fault plane applied on the wire path.
// Either gives the same report under a seed, scripted loss included (the
// report's engine metadata records the transport); only wall-clock timing
// differs, and under upload caps a queue may see a sender's sends in
// wall-clock delivery order.
//
// -metrics serves the observability plane live while the run executes:
// Prometheus text exposition on /metrics, a JSON snapshot on
// /metrics.json, the deterministic-class rendering on /metrics.det, and
// net/http/pprof under /debug/pprof/. The bound address is printed to
// stderr (pass port 0 for an ephemeral port); -linger keeps the endpoint
// up after the run so a scraper gets a final read. -trace writes the
// structured round-event log (JSONL) to a file. Neither flag perturbs
// the report: metrics and traces sit outside the determinism boundary.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	pag "repro"
	"repro/internal/obs"
	"repro/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams passed in, so
// the golden test drives exactly what a shell does.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pag-scenario", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scName    = fs.String("scenario", "", "canned scenario name (see -list)")
		file      = fs.String("file", "", "scenario JSON file (overrides -scenario)")
		netKind   = fs.String("net", "mem", "transport: mem (deterministic in-memory) or tcp (loopback sockets)")
		protocols = fs.String("protocol", "all", "pag|acting|all")
		nodes     = fs.Int("nodes", 16, "initial system size, including the source")
		stream    = fs.Int("stream", 60, "stream bitrate in kbps")
		modBits   = fs.Int("modulus", 128, "homomorphic modulus bits (512 for paper-faithful sizes)")
		seed      = fs.Uint64("seed", 7, "session seed: keys, membership draws and the network fault plane; also a canned scenario's timeline seed (a -file scenario keeps its own timeline seed)")
		threshold = fs.Int("threshold", 1, "verdict count that counts as a conviction")
		workers   = fs.Int("workers", runtime.GOMAXPROCS(0),
			"round-engine workers (0 or 1 steps inline, more shard the nodes — in-memory transport only; results are byte-identical either way; forced 0 with -net tcp)")
		dump    = fs.Bool("dump", false, "print the scenario JSON instead of running it")
		list    = fs.Bool("list", false, "list canned scenarios")
		metrics = fs.String("metrics", "", "serve live metrics on this address (e.g. 127.0.0.1:9100; port 0 picks one): Prometheus text on /metrics, JSON on /metrics.json, pprof on /debug/pprof/")
		trace   = fs.String("trace", "", "write the structured round-event trace (JSONL) to this file")
		linger  = fs.Duration("linger", 0, "keep the -metrics endpoint up this long after the run (scrape window)")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *list {
		for _, n := range scenario.Names() {
			sc, _ := scenario.ByName(n, *nodes, *stream)
			fmt.Fprintf(stdout, "%-22s %s\n", n, sc.Description)
		}
		return 0
	}

	// Canned scenarios are sized from the actual -nodes and -stream flags
	// (capacity-cliff's caps are multiples of the stream rate — a 60 kbps
	// sweep against a 300 kbps stream would silently start past the
	// cliff) and follow the -seed sweep; a scenario file is the script of
	// record and keeps its own timeline seed. The session, and with it the
	// network fault plane, follows -seed either way.
	sc, err := loadScenario(*file, *scName, *nodes, *stream)
	if err != nil {
		fmt.Fprintln(stderr, "pag-scenario:", err)
		return 1
	}
	if *file == "" {
		sc.Seed = *seed
	}
	if *dump {
		fmt.Fprintf(stdout, "%s\n", sc.JSON())
		return 0
	}

	var ps []pag.Protocol // nil: RunScenarioReport runs every protocol
	if !strings.EqualFold(*protocols, "all") {
		p, err := pag.ParseProtocol(*protocols)
		if err != nil {
			fmt.Fprintln(stderr, "pag-scenario:", err)
			return 2
		}
		ps = []pag.Protocol{p}
	}

	cfg := pag.SessionConfig{
		Nodes:       *nodes,
		StreamKbps:  *stream,
		ModulusBits: *modBits,
		Seed:        *seed,
		Workers:     *workers,
	}
	if *metrics != "" {
		reg := obs.NewRegistry()
		cfg.Obs = reg
		srv, err := obs.Serve(*metrics, reg)
		if err != nil {
			fmt.Fprintln(stderr, "pag-scenario: metrics:", err)
			return 1
		}
		defer srv.Close()
		// The bound address goes to stderr (the report owns stdout) so
		// `-metrics 127.0.0.1:0` callers learn the picked port.
		fmt.Fprintf(stderr, "pag-scenario: metrics on http://%s/metrics\n", srv.Addr())
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(stderr, "pag-scenario: trace:", err)
			return 1
		}
		defer f.Close()
		cfg.Trace = obs.NewTracer(f)
		// Wall-clock stamps let pag-trace report real exchange latencies;
		// they sit outside the determinism boundary like the trace itself.
		cfg.Trace.SetClock(func() int64 { return time.Now().UnixNano() })
	}
	if err := cfg.UseNetwork(*netKind); err != nil {
		fmt.Fprintln(stderr, "pag-scenario:", err)
		return 2
	}

	report, err := pag.RunScenarioReport(cfg, sc, ps, *threshold)
	if err != nil {
		fmt.Fprintln(stderr, "pag-scenario:", err)
		return 1
	}
	// A latched tracer write error means the journal is truncated — worth
	// a failing exit even though the report itself is sound.
	if err := cfg.Trace.Err(); err != nil {
		fmt.Fprintln(stderr, "pag-scenario: trace: journal truncated:", err)
		return 1
	}
	stdout.Write(report.JSON())
	if *metrics != "" && *linger > 0 {
		time.Sleep(*linger)
	}
	return 0
}

func loadScenario(file, name string, nodes, streamKbps int) (scenario.Scenario, error) {
	switch {
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			return scenario.Scenario{}, err
		}
		return scenario.ParseJSON(data)
	case name != "":
		return scenario.ByName(name, nodes, streamKbps)
	default:
		return scenario.Scenario{}, fmt.Errorf("pass -scenario or -file (or -list)")
	}
}
