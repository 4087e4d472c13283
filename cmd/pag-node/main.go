// Command pag-node runs one PAG participant over real TCP — the
// reproduction's analogue of the paper's Grid'5000 deployment (§VII-A).
// All nodes of a deployment share a roster file listing "id host:port"
// lines; node 1 is the stream source.
//
// Usage (three shells, after writing roster.txt):
//
//	pag-node -id 1 -roster roster.txt -rounds 30 -stream 300
//	pag-node -id 2 -roster roster.txt -rounds 30
//	pag-node -id 3 -roster roster.txt -rounds 30
//
// Every process derives the same membership assignment from the shared
// seed, ticks rounds on a wall-clock period (1 s by default, §VII-A), and
// prints its delivery and bandwidth summary at the end.
//
// # Scenarios over real sockets
//
// -scenario runs a scripted timeline (a canned name from pag-scenario
// -list, or a JSON file) against the deployment: every process compiles
// the identical timeline from the shared seed and applies it at the top
// of each round, so loss, partitions, upload caps, churn and adversary
// activation fire deterministically and identically everywhere — no
// coordinator. Network faults drive the local transport's fault plane on
// the wire path (each message is admitted once, at its sender).
//
// Churn maps onto the roster: -members k makes the k lowest roster ids
// the founding membership and keeps the rest as standby joiners, consumed
// in ascending order by the timeline's join events; a standby process
// idles until its join round, then registers its endpoint (a real mid-run
// listen) and participates. Leaves and crashes silence the victim — its
// process deregisters from the wire — and remove it from every process's
// membership view at the scripted round.
//
//	pag-node -id 4 -roster roster.txt -members 3 -scenario steady-churn
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hhash"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pki"
	"repro/internal/scenario"
	"repro/internal/streaming"
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
		roster  = fs.String("roster", "", "path to the roster file: lines of '<id> <host:port>'")
		rounds  = fs.Int("rounds", 30, "rounds to run before exiting")
		stream  = fs.Int("stream", 300, "source bitrate in kbps (node 1 only)")
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

// runNode assembles and drives one socket node to completion, printing
// its progress to out.
func runNode(out io.Writer, self model.NodeID, book map[model.NodeID]string, rounds, streamKbps int,
	period time.Duration, seed uint64, modBits int, sc *scenario.Scenario, founding int,
	metricsAddr, traceFile string) error {
	ids := make([]model.NodeID, 0, len(book))
	for id := range book {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	foundingIDs, standby := ids[:founding], ids[founding:]

	// The metrics endpoint is per-process: each node of the deployment
	// serves its own view (a nil registry disables instrumentation).
	var reg *obs.Registry
	if metricsAddr != "" {
		reg = obs.NewRegistry()
		srv, err := obs.Serve(metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(out, "[%v] metrics on http://%s/metrics\n", self, srv.Addr())
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

	dir, err := membership.New(foundingIDs, membership.Config{
		Seed:     seed,
		Fanout:   model.FanoutFor(len(foundingIDs)),
		Monitors: model.FanoutFor(len(foundingIDs)),
		Metrics:  reg,
		Trace:    tr,
	})
	if err != nil {
		return err
	}

	// Every process must derive identical key material, so the
	// deployment uses deterministic per-node secrets from the shared
	// seed. A production deployment would exchange public keys out of
	// band instead.
	suite := pki.NewFastSuite()
	identities := make(map[model.NodeID]pki.Identity, len(ids))
	for _, nid := range ids {
		identity, err := suite.NewDeterministicIdentity(nid, seed)
		if err != nil {
			return err
		}
		identities[nid] = identity
	}

	// All processes must agree on the hash modulus: derive it from the
	// seed deterministically.
	params, err := hhash.GenerateParams(seededReader(seed), modBits)
	if err != nil {
		return err
	}
	shared := core.NewShared(core.Shared{
		Suite:      suite,
		HashParams: params,
		Directory:  dir,
		Sources:    []model.NodeID{1},
		Metrics:    reg,
		Trace:      tr,
	})

	net := transport.NewTCPNet(book)
	net.Faults().Instrument(reg, tr)
	// The link queues' expiry deadline follows the deployment's playout
	// window — the TTL its source streams with (NewSource defaults to
	// model.PlayoutDelayRounds) — mirroring how a simulated session pins
	// the deadline to its own TTL. Scripted set_queue_cap events may
	// retune it mid-run.
	net.Faults().SetQueueDeadline(model.PlayoutDelayRounds)
	defer func() { _ = net.Close() }()

	d := &deployment{
		out:        out,
		self:       self,
		net:        net,
		dir:        dir,
		shared:     shared,
		identities: identities,
		members:    make(map[model.NodeID]bool, len(foundingIDs)),
		departed:   make(map[model.NodeID]model.Round),
		standby:    append([]model.NodeID(nil), standby...),
		pending:    make(map[model.Round][]func(model.Round)),
		player:     streaming.NewPlayer(0),
	}
	for _, nid := range foundingIDs {
		d.members[nid] = true
	}

	if d.members[self] {
		if err := d.activate(); err != nil {
			return err
		}
	} else if sc == nil {
		return fmt.Errorf("node %v is outside the founding membership (-members %d) but no -scenario will ever join it", self, founding)
	}

	var source *streaming.Source
	if self == 1 && d.node != nil {
		source, err = streaming.NewSource(0, identities[1], d.node, streamKbps, 0, 0)
		if err != nil {
			return err
		}
	}

	var timeline *scenario.Timeline
	if sc != nil {
		timeline, err = scenario.Compile(*sc)
		if err != nil {
			return err
		}
		timeline.Instrument(tr)
		fmt.Fprintf(out, "[%v] scenario %q: %d rounds, %d founding members, %d standby\n",
			self, sc.Name, sc.Rounds, len(foundingIDs), len(standby))
	}

	fmt.Fprintf(out, "[%v] joined %d-node deployment, %d rounds at %v\n",
		self, len(ids), rounds, period)
	// Between phases the process drains its inbox until the next phase's
	// wall-clock start: every handler runs here, between node steps. Round
	// 1 starts a period after the listener came up, so that peers started
	// within a period of this process are listening before anyone sends
	// (a KeyRequest to a peer not yet listening is lost with its
	// exchange).
	start := time.Now().Add(period)
	net.DeliverUntil(start)
	for r := model.Round(1); r <= model.Round(rounds); r++ {
		at := start.Add(time.Duration(r-1) * period)
		end := at.Add(period)
		net.BeginRound()
		tr.Emit("round_begin", obs.F("round", r), obs.F("nodes", len(d.members)))
		for _, fn := range d.pending[r] {
			fn(r)
		}
		delete(d.pending, r)
		if timeline != nil {
			timeline.Apply(r, d)
		}
		if d.node == nil {
			tr.Emit("round_end", obs.F("round", r), obs.F("idle", true))
			net.DeliverUntil(end) // standby or departed: stay in wall-clock lockstep
			continue
		}
		if source != nil {
			if err := source.Tick(r); err != nil {
				return err
			}
		}
		// The exchange quarter of the period, in ExchangeSlots equal parts:
		// BeginRound opens slot 0, OpenSlot the others.
		slots := d.node.ExchangeSlots()
		slot := period / time.Duration(4*slots)
		d.node.BeginRound(r)
		for k := 1; k < slots; k++ {
			at = at.Add(slot)
			net.DeliverUntil(at)
			d.node.OpenSlot(r, k)
		}
		at = at.Add(slot)
		net.DeliverUntil(at)
		d.node.MidRound(r)
		at = at.Add(period / 4)
		net.DeliverUntil(at)
		d.node.EndRound(r)
		net.DeliverUntil(at.Add(period / 4))
		d.node.CloseRound(r)
		tr.Emit("round_end", obs.F("round", r))
		net.DeliverUntil(end)
	}
	if err := tr.Err(); err != nil {
		return fmt.Errorf("trace: journal truncated: %w", err)
	}

	if timeline != nil {
		applied, failed := 0, 0
		for _, e := range timeline.Journal() {
			applied++
			if e.Err != "" {
				failed++
			}
		}
		f := net.Faults()
		fmt.Fprintf(out, "[%v] scenario journal: %d events (%d failed), dropped %d on the wire, %d retransmitted (%d deferred by caps, %d expired queued)\n",
			self, applied, failed, f.Dropped(), f.Retransmitted(), f.Deferred(), f.CapExpired())
	}
	if d.node != nil {
		st := d.node.Stats()
		fmt.Fprintf(out, "[%v] done: delivered %d updates, %d hash ops, %d signatures\n",
			self, st.UpdatesDelivered, st.HashOps, st.SigOps)
	} else {
		fmt.Fprintf(out, "[%v] done: departed or never joined; delivered %d updates before leaving\n",
			self, d.player.Delivered())
	}
	return nil
}

// deployment is one process's view of a scripted TCP deployment: it
// implements scenario.Applier so the shared timeline can drive churn,
// faults and adversary activation against real sockets. Every process
// applies the identical event stream; only the self-targeted effects
// (activation, deregistration, behavior flips) differ per process.
type deployment struct {
	out        io.Writer // progress and verdict lines
	self       model.NodeID
	net        *transport.TCPNet
	dir        *membership.Directory
	shared     *core.Shared // the session plane; no interner, as in any one process
	identities map[model.NodeID]pki.Identity

	node   *core.Node // nil while standby or after departure
	player *streaming.Player

	members  map[model.NodeID]bool
	departed map[model.NodeID]model.Round
	standby  []model.NodeID // ascending; consumed by join events
	pending  map[model.Round][]func(model.Round)
}

var _ scenario.Applier = (*deployment)(nil)

// activate constructs and registers the local protocol node (at startup
// for founding members, at the scripted join round for standby ones — a
// real mid-run listen). Frames that reach the listener before
// core.NewNode returns wait in the net's inbox: handlers only run inside
// the round loop's DeliverUntil, on this goroutine.
func (d *deployment) activate() error {
	var n *core.Node
	ep, err := d.net.Register(d.self, func(m transport.Message) { n.HandleMessage(m) })
	if err != nil {
		return err
	}
	n, err = core.NewNode(core.Config{
		ID:        d.self,
		Identity:  d.identities[d.self],
		Endpoint:  ep,
		IsSource:  d.self == 1,
		Shared:    d.shared,
		OnDeliver: d.player.OnDeliver,
		Verdicts: func(v core.Verdict) {
			fmt.Fprintf(d.out, "[%v] VERDICT %v\n", d.self, v)
		},
	})
	if err != nil {
		d.net.Unregister(d.self)
		return err
	}
	d.node = n
	return nil
}

// Join implements scenario.Applier: an auto join (NoNode) consumes the
// lowest standby roster id — the same pick in every process — and the
// owning process comes on the wire.
func (d *deployment) Join(r model.Round, id model.NodeID) (model.NodeID, error) {
	if id == model.NoNode {
		if len(d.standby) == 0 {
			return model.NoNode, fmt.Errorf("no standby roster ids left to join")
		}
		id = d.standby[0]
	}
	if d.members[id] {
		return model.NoNode, fmt.Errorf("node %v is already a member", id)
	}
	if _, gone := d.departed[id]; gone {
		return model.NoNode, fmt.Errorf("node %v already departed (roster ids are single-use)", id)
	}
	found := false
	for i, sid := range d.standby {
		if sid == id {
			d.standby = append(d.standby[:i], d.standby[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return model.NoNode, fmt.Errorf("node %v is not a standby roster id", id)
	}
	if err := d.dir.Join(id, r); err != nil {
		return model.NoNode, err
	}
	d.members[id] = true
	if id == d.self {
		if err := d.activate(); err != nil {
			return model.NoNode, err
		}
		fmt.Fprintf(d.out, "[%v] joined the deployment at round %v\n", d.self, r)
	}
	return id, nil
}

// Leave implements scenario.Applier: the membership re-draws everywhere
// and the victim's process deregisters from the wire.
func (d *deployment) Leave(r model.Round, id model.NodeID) error {
	if id == 1 {
		return fmt.Errorf("the source cannot leave")
	}
	if gone, was := d.departed[id]; was {
		return fmt.Errorf("node %v already departed at %v", id, gone)
	}
	if err := d.dir.Leave(id, r); err != nil {
		return err
	}
	d.depart(id, r)
	return nil
}

// Crash implements scenario.Applier: the victim goes silent now; every
// process removes it from the membership lingerRounds later (the shared
// failure-detection latency).
func (d *deployment) Crash(r model.Round, id model.NodeID, lingerRounds int) error {
	if id == 1 {
		return fmt.Errorf("the source cannot crash (assumed correct, §III)")
	}
	if !d.dir.Contains(id) {
		return fmt.Errorf("crash of non-member %v", id)
	}
	if gone, was := d.departed[id]; was {
		return fmt.Errorf("node %v already departed at %v", id, gone)
	}
	if lingerRounds <= 0 {
		return d.Leave(r, id)
	}
	d.depart(id, r)
	detect := r + model.Round(lingerRounds)
	d.pending[detect] = append(d.pending[detect], func(rr model.Round) {
		if d.dir.Contains(id) {
			_ = d.dir.Leave(id, rr)
		}
	})
	return nil
}

// depart silences a node: the fault plane drops its traffic in both
// directions, and — when it is this process — the endpoint deregisters,
// a real listener teardown.
func (d *deployment) depart(id model.NodeID, r model.Round) {
	d.net.Faults().SetNodeDown(id, true)
	d.departed[id] = r
	delete(d.members, id)
	if id == d.self {
		d.net.Unregister(d.self)
		d.node = nil
		fmt.Fprintf(d.out, "[%v] departed at round %v\n", d.self, r)
	}
}

// SetLossRate implements scenario.Applier.
func (d *deployment) SetLossRate(rate float64) { d.net.Faults().SetLossRate(rate) }

// Partition implements scenario.Applier.
func (d *deployment) Partition(groups [][]model.NodeID) { d.net.Faults().SetPartition(groups...) }

// Heal implements scenario.Applier.
func (d *deployment) Heal() { d.net.Faults().Heal() }

// SetUploadCap implements scenario.Applier (kbps; the fault plane owns
// the conversion, so the deployment and the simulated session agree).
// Caps are the queued link model: over-budget frames wait at the NIC and
// the per-round BeginRound drain writes them out as budget allows.
func (d *deployment) SetUploadCap(id model.NodeID, kbps int) {
	d.net.Faults().SetUploadCapKbps(id, kbps)
}

// SetQueueCap implements scenario.Applier: the link-model cap with an
// optional queue-deadline retune (negative disables expiry, 0 keeps the
// current deadline). A multi-process deployment has no epoch report to
// slice, so only the fault plane is touched.
func (d *deployment) SetQueueCap(id model.NodeID, kbps, deadlineRounds int) {
	d.net.Faults().SetUploadCapKbps(id, kbps)
	if deadlineRounds != 0 {
		d.net.Faults().SetQueueDeadline(deadlineRounds)
	}
}

// SetBehavior implements scenario.Applier: the target and profile are
// validated in every process (identical journals — a mistargeted event
// fails everywhere, as it does on the simulated session) but only the
// targeted process flips its own node.
func (d *deployment) SetBehavior(id model.NodeID, profile scenario.BehaviorProfile) error {
	if id == 1 {
		return fmt.Errorf("the source is assumed correct (§III)")
	}
	if !d.members[id] {
		return fmt.Errorf("no node %v in the membership", id)
	}
	b, known := core.BehaviorForProfile(string(profile))
	if !known {
		return fmt.Errorf("unknown behavior profile %q", profile)
	}
	if id == d.self && d.node != nil {
		d.node.SetBehavior(b)
	}
	return nil
}

// ChurnTargets implements scenario.Applier: every current member except
// the source.
func (d *deployment) ChurnTargets() []model.NodeID {
	out := make([]model.NodeID, 0, len(d.members))
	for id := range d.members {
		if id == 1 {
			continue
		}
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// readRoster parses "id host:port" lines; '#' starts a comment.
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
	if len(book) < 2 {
		return nil, fmt.Errorf("roster has %d nodes; need at least 2", len(book))
	}
	return book, nil
}

// seededReader yields a deterministic byte stream for shared parameter
// generation (the modulus must be identical across processes).
func seededReader(seed uint64) *detReader { return &detReader{state: seed} }

type detReader struct{ state uint64 }

func (d *detReader) Read(p []byte) (int, error) {
	for i := range p {
		d.state += 0x9E3779B97F4A7C15
		z := d.state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		p[i] = byte(z ^ (z >> 31))
	}
	return len(p), nil
}
