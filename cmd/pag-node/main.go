// Command pag-node runs one PAG participant over real TCP — the
// reproduction's analogue of the paper's Grid'5000 deployment (§VII-A).
// All nodes of a deployment share a roster file listing "id host:port"
// lines, numbered 1 to N; node 1 is the stream source.
//
// Usage (one shell per line of roster.txt, which needs at least fanout+2 =
// 5 lines):
//
//	pag-node -id 1 -roster roster.txt -rounds 30 -stream 300
//	...
//	pag-node -id 5 -roster roster.txt -rounds 30 -stream 300
//
// Each process runs a pag.Session that hosts only its own node, over a
// TCPNet on the roster. Every session derives the same membership, keys
// and hash modulus from the shared seed and steps the same phases as a
// simulated one, paced on a wall-clock period (1 s by default, §VII-A) by
// Session.RunPaced. The process prints the verdicts its node raises after
// each round, and at the end how many paced phase steps overran their
// deadline (verdicts in such rounds may blame a slow host) and its
// delivery summary.
//
// # Scenarios over real sockets
//
// -scenario runs a scripted timeline (a canned name from pag-scenario
// -list, or a JSON file). Every process's session compiles the identical
// timeline and applies it at the top of each round, with the applier a
// single-process session uses, so loss, partitions, upload caps, churn and
// adversary activation fire identically everywhere — no coordinator. An
// event against a node hosted elsewhere changes only the local view of it:
// the membership, and the fault plane on the local wire path (each message
// is admitted once, at its sender).
//
// Churn maps onto the roster: -members k (at least 5) makes ids 1 to k the
// founding membership and keeps the rest as standby joiners, which the
// timeline's join events take in ascending order (a session numbers its
// joiners from k+1). A standby process listens from the start and buffers
// what arrives until its join round, then participates. A join beyond the
// roster is refused in every process and logged as failed. Leaves and crashes
// take the victim's endpoint off the wire and remove it from every
// process's membership at the scripted round. A scenario with an eviction
// block is refused: a conviction is known only to the processes whose
// nodes raised it, so the processes could not agree on an eviction.
//
//	pag-node -id 6 -roster roster8.txt -members 5 -scenario steady-churn
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	pag "repro"
	"repro/internal/judicial"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams passed in, so
// tests drive exactly what a shell does.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pag-node", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id      = fs.Uint("id", 0, "this node's id (from the roster)")
		roster  = fs.String("roster", "", "path to the roster file: lines of '<id> <host:port>', ids 1 to N")
		rounds  = fs.Int("rounds", 30, "rounds to run before exiting")
		stream  = fs.Int("stream", 300, "source bitrate in kbps (every process must pass the same value)")
		period  = fs.Duration("period", time.Second, "gossip period (round duration)")
		seed    = fs.Uint64("seed", 1, "shared membership seed")
		modBits = fs.Int("modulus", 128, "homomorphic modulus bits (512 for paper-faithful)")
		scFlag  = fs.String("scenario", "", "scripted timeline: canned scenario name or JSON file (all processes must pass the same value)")
		members = fs.Int("members", 0, "founding member count: the lowest ids of the roster (0 = all; the rest are standby joiners for the scenario)")
		metrics = fs.String("metrics", "", "serve this process's live metrics on this address (Prometheus /metrics, JSON /metrics.json, pprof /debug/pprof/; port 0 picks one)")
		traceF  = fs.String("trace", "", "write this process's structured round-event trace (JSONL) to this file; journals from several processes merge in pag-trace by exchange id")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *id == 0 || *roster == "" {
		fmt.Fprintln(stderr, "pag-node: -id and -roster are required")
		fs.Usage()
		return 2
	}

	book, err := readRoster(*roster)
	if err != nil {
		fmt.Fprintln(stderr, "pag-node:", err)
		return 1
	}
	self := model.NodeID(*id)
	if _, ok := book[self]; !ok {
		fmt.Fprintf(stderr, "pag-node: id %d not in roster\n", *id)
		return 1
	}

	// The founding membership is the k lowest roster ids; without a
	// scenario nothing can ever join, so everyone founds. A count beyond
	// the roster is a misconfiguration (likely a truncated roster file),
	// not a default to silently fall back from.
	if *members > len(book) {
		fmt.Fprintf(stderr, "pag-node: -members %d exceeds the %d-node roster\n", *members, len(book))
		return 2
	}
	founding := *members
	if founding <= 0 || *scFlag == "" {
		founding = len(book)
	}

	var sc *scenario.Scenario
	if *scFlag != "" {
		// Canned scenarios size their targets (adversaries, islanders,
		// joiner counts) to the *founding* membership — those are the
		// ids that exist as members when the timeline fires; the rest of
		// the roster is standby capacity for its join events.
		loaded, err := loadScenario(*scFlag, founding, *stream, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "pag-node:", err)
			return 1
		}
		if loaded.Eviction != nil {
			fmt.Fprintf(stderr, "pag-node: scenario %q has an eviction block, which separate processes cannot agree on\n", loaded.Name)
			return 2
		}
		sc = &loaded
		if *rounds < sc.Rounds {
			*rounds = sc.Rounds
		}
	}

	if err := runNode(stdout, self, book, *rounds, *stream, *period, *seed, *modBits, sc, founding, *metrics, *traceF); err != nil {
		fmt.Fprintln(stderr, "pag-node:", err)
		return 1
	}
	return 0
}

// loadScenario resolves -scenario: a file path if one exists there, else a
// canned name sized for the roster. Canned timelines take the shared seed
// (identical flags ⇒ identical timelines in every process); a file keeps
// its own seed, like pag-scenario.
func loadScenario(nameOrPath string, rosterSize, streamKbps int, seed uint64) (scenario.Scenario, error) {
	data, err := os.ReadFile(nameOrPath)
	switch {
	case err == nil:
		return scenario.ParseJSON(data)
	case !os.IsNotExist(err):
		// The file exists but cannot be read: report that, never fall
		// back to a canned name (processes could silently load
		// different scripts).
		return scenario.Scenario{}, err
	}
	sc, err := scenario.ByName(nameOrPath, rosterSize, streamKbps)
	if err != nil {
		return scenario.Scenario{}, fmt.Errorf("scenario %q is neither a file nor a canned name: %w", nameOrPath, err)
	}
	sc.Seed = seed
	return sc, nil
}

// runNode runs this process's session to completion, printing its
// progress to out.
func runNode(out io.Writer, self model.NodeID, book map[model.NodeID]string, rounds, streamKbps int,
	period time.Duration, seed uint64, modBits int, sc *scenario.Scenario, founding int,
	metricsAddr, traceFile string) error {
	// The metrics endpoint is per-process: each node of the deployment
	// serves its own view (a nil registry disables instrumentation).
	var reg *obs.Registry
	if metricsAddr != "" {
		reg = obs.NewRegistry()
	}
	// The trace journal is per-process too: each node writes its own
	// JSONL file, and pag-trace merges several by exchange id — the same
	// exchange produces correlated events in the sender's, receiver's and
	// monitors' journals. The clock is set so pag-trace can report real
	// exchange latencies.
	var tr *obs.Tracer
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer func() { _ = f.Close() }()
		tr = obs.NewTracer(f)
		tr.SetClock(func() int64 { return time.Now().UnixNano() })
	}

	var tcp *transport.TCPNet
	s, err := pag.NewSession(pag.SessionConfig{
		Nodes:       founding,
		StreamKbps:  streamKbps,
		ModulusBits: modBits,
		Seed:        seed,
		Scenario:    sc,
		Obs:         reg,
		Trace:       tr,
		Hosted:      []model.NodeID{self},
		NewNetwork: func() transport.FaultyNetwork {
			tcp = transport.NewTCPNet(book)
			return tcp
		},
	})
	if err != nil {
		return err
	}
	if reg != nil {
		srv, err := obs.Serve(metricsAddr, reg)
		if err != nil {
			_ = s.Close()
			return fmt.Errorf("metrics: %w", err)
		}
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(out, "[%v] metrics on http://%s/metrics\n", self, srv.Addr())
	}
	if sc != nil {
		fmt.Fprintf(out, "[%v] scenario %q: %d rounds, %d founding members, %d standby\n",
			self, sc.Name, sc.Rounds, founding, len(book)-founding)
	}
	fmt.Fprintf(out, "[%v] joined %d-node deployment, %d rounds at %v\n",
		self, len(book), rounds, period)

	// Round 1 starts a period after the listener came up, so that peers
	// started within a period of this process are listening before anyone
	// sends (a KeyRequest to a peer not yet listening is lost with its
	// exchange). Frames arriving earlier are handled here.
	start := time.Now().Add(period)
	tcp.DeliverUntil(start)
	live := self <= model.NodeID(founding)
	applied, failed, printed := 0, 0, make(map[judicial.Key]bool)
	for r := 1; r <= rounds; r++ {
		s.RunPaced(1, start, period)
		journal := s.ScenarioJournal()
		for _, e := range journal[applied:] {
			switch {
			case e.Err != "":
				failed++
				fmt.Fprintf(out, "[%v] round %v: %s failed: %s\n", self, e.Round, e.Action, e.Err)
			case e.Node != self:
			case e.Action == scenario.ActionJoin:
				live = true
				fmt.Fprintf(out, "[%v] joined the deployment at round %v\n", self, e.Round)
			case e.Action == scenario.ActionLeave, e.Action == scenario.ActionCrash:
				live = false
				fmt.Fprintf(out, "[%v] departed at round %v\n", self, e.Round)
			}
		}
		applied = len(journal)
		for _, rec := range s.Judicial().Records() {
			if !printed[rec.Key] {
				printed[rec.Key] = true
				fmt.Fprintf(out, "[%v] VERDICT %v\n", self, rec.Verdict)
			}
		}
	}

	if sc != nil {
		f := tcp.Faults()
		fmt.Fprintf(out, "[%v] scenario journal: %d events (%d failed), dropped %d on the wire, %d retransmitted (%d deferred by caps, %d expired queued)\n",
			self, applied, failed, f.Dropped(), f.Retransmitted(), f.Deferred(), f.CapExpired())
	}
	fmt.Fprintf(out, "[%v] paced: %d phase steps overran their deadline\n", self, s.PacedOverruns())
	if live {
		st := s.PAGNodeStats()[self]
		fmt.Fprintf(out, "[%v] done: delivered %d updates, %d hash ops, %d signatures\n",
			self, st.UpdatesDelivered, st.HashOps, st.SigOps)
	} else {
		var delivered uint64
		if p := s.Player(self); p != nil {
			delivered = p.Delivered()
		}
		fmt.Fprintf(out, "[%v] done: departed or never joined; delivered %d updates before leaving\n",
			self, delivered)
	}
	return s.Close()
}

// readRoster parses "id host:port" lines; '#' starts a comment. The ids
// must be 1 to N, the numbering a session gives its founders and joiners.
func readRoster(path string) (map[model.NodeID]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	book := make(map[model.NodeID]string)
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("roster line %d: want '<id> <host:port>'", lineNo)
		}
		id, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil || id == 0 {
			return nil, fmt.Errorf("roster line %d: bad id %q", lineNo, fields[0])
		}
		book[model.NodeID(id)] = fields[1]
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for id := model.NodeID(1); int(id) <= len(book); id++ {
		if _, ok := book[id]; !ok {
			return nil, fmt.Errorf("roster ids must be 1 to %d: %v is missing", len(book), id)
		}
	}
	return book, nil
}
