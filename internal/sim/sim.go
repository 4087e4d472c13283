// Package sim drives round-phased protocol nodes: it is the reproduction's
// OMNeT++ analogue (§VII-A, "Simulations settings"). The engine advances
// rounds in four phases with full message delivery between them, keeping
// every run deterministic under a fixed seed, and collects the per-node
// bandwidth statistics the paper plots. The same phases also run paced
// on a wall clock (RunPaced), which is how a deployment's processes keep
// in step.
//
// # Inline and sharded stepping
//
// At one worker the engine steps nodes in registration order on the
// calling goroutine and drains the network through its SteppedNetwork
// interface, so it runs over any stepped transport: MemNet, or TCP
// sockets. Above one worker it needs a MemNet: nodes are
// assigned to shards by id (id mod workers), each phase step fans out one
// goroutine per shard, and each delivery wave taken from the network is
// partitioned by destination shard. A node's phase steps and its incoming
// deliveries therefore always run on its own shard, and no node is touched
// by two goroutines at once. Shard assignment affects scheduling only.
//
// # Determinism invariant
//
// A run is byte-identical at any worker count. The invariant is
// structural, not best-effort, and rests on three properties:
//
//  1. Node steps within a phase are independent. Nodes interact only
//     through messages, and messages are delivered exclusively at phase
//     barriers; shared infrastructure reached during a step (membership
//     directory, PKI suite, verdict sinks) is either immutable for the
//     round or commutative (counters, set-like collections).
//  2. Sends are buffered per sender and merged in canonical order —
//     ascending sender id, then per-sender send sequence — with the
//     network fault plane (seeded loss, partitions, upload caps) and all
//     traffic accounting applied at the merge point (transport.MemNet).
//     The canonical stream therefore depends only on what each node sent,
//     never on which worker ran it first.
//  3. Delivery preserves per-destination canonical order. A wave is
//     partitioned by destination shard; each worker replays its
//     destinations' subsequences in canonical order, and a node's state
//     (and its replies) depend only on its own subsequence.
//
// Anything that would break property 1 — a node reading another node's
// state mid-phase, a non-commutative shared sink — is a bug in the node,
// and the CI race job (`go test -race`) is the tripwire for it.
package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/transport"
)

// Protocol is a round-phased protocol node. PAG nodes and AcTinG nodes
// both implement it.
type Protocol interface {
	// ID returns the node's identifier.
	ID() model.NodeID
	// BeginRound opens a round (send opening messages).
	BeginRound(r model.Round)
	// MidRound runs after the exchange traffic quiesced (monitor
	// reports, accusations, audits).
	MidRound(r model.Round)
	// EndRound runs verification passes (may open investigations).
	EndRound(r model.Round)
	// CloseRound judges, delivers to the application and cleans up.
	CloseRound(r model.Round)
}

// Slotted is a Protocol whose exchange phase opens in several slots:
// BeginRound is slot 0 and the engine calls OpenSlot for slots 1 to
// ExchangeSlots()−1, delivering to quiescence after each, before MidRound.
// PAG nodes implement it; a round of protocols that do not runs exactly
// the four phases.
type Slotted interface {
	Protocol
	// ExchangeSlots returns the slot count of a round (at least 1).
	ExchangeSlots() int
	// OpenSlot opens the exchanges of slot k of round r.
	OpenSlot(r model.Round, k int)
}

// RoundHook runs at the start of each round, before nodes act — the
// injection point of the source, the scenario and membership churn.
type RoundHook func(r model.Round)

// Engine coordinates nodes and the network.
//
// Mutating calls (Add, Remove, OnRoundStart, StartMeasuring) are only
// legal between rounds or from round-top hooks, which run single-threaded
// before any phase fans out.
type Engine struct {
	net transport.SteppedNetwork
	// mem is the network of a sharded engine (workers > 1); nil inline.
	mem     *transport.MemNet
	workers int
	round   model.Round

	nodes []Protocol
	hooks []RoundHook
	// buckets is runSharded's per-shard scratch, one per worker.
	buckets [][]transport.Delivery
	// slots is the largest ExchangeSlots of any Slotted node ever added
	// (0 when there is none: BeginRound alone).
	slots int

	// The steady-state bandwidth window: traffic counters snapshotted at
	// StartMeasuring, so warm-up rounds are excluded, as in the paper's
	// steady-state numbers.
	baseline map[model.NodeID]transport.Traffic
	measured model.Round // rounds measured so far
	// overruns counts the paced steps that finished past their deadline.
	overruns int

	// Observability (nil without a registry). Rounds and deliveries are
	// deterministic counts; round durations are ClassTimed (deterministic
	// count, wall-clock buckets); shard durations and merge-barrier stalls
	// are ClassSched — their very observation count depends on the worker
	// count, so they are excluded from deterministic snapshots entirely.
	// The paced-overrun gauge is ClassSched too: the wall clock drives it.
	roundsC     *obs.Counter
	deliveriesC *obs.Counter
	roundSpans  *obs.Histogram
	shardSpans  *obs.Histogram
	stallSpans  *obs.Histogram
	overrunsG   *obs.Gauge
	trace       *obs.Tracer
}

// NewEngine creates an engine over a stepped network. At 0 or 1 worker it
// steps inline on the calling goroutine over any SteppedNetwork, and never
// fails; above one it shards node steps and deliveries across that many
// goroutines and requires a *transport.MemNet (the merge point it shards
// around). A negative count selects GOMAXPROCS.
func NewEngine(net transport.SteppedNetwork, workers int) (*Engine, error) {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{net: net, workers: max(workers, 1)}
	if e.workers > 1 {
		mem, ok := net.(*transport.MemNet)
		if !ok {
			return nil, fmt.Errorf("sim: %d workers need the in-memory transport; %T runs with 0 or 1 worker", e.workers, net)
		}
		e.mem = mem
	}
	return e, nil
}

// Workers returns the effective worker count (1 when stepping inline).
func (e *Engine) Workers() int { return e.workers }

// Instrument attaches the observability registry and tracer (either may
// be nil): counters plus round_begin/round_end trace events bracketing
// every round, emitted single-threaded (round top / after the last
// barrier), so they are part of the deterministic event class.
func (e *Engine) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	e.roundsC = reg.Counter("pag_engine_rounds_total")
	e.deliveriesC = reg.Counter("pag_engine_deliveries_total")
	e.roundSpans = reg.Histogram("pag_engine_round_seconds", obs.ClassTimed)
	e.shardSpans = reg.Histogram("pag_engine_shard_seconds", obs.ClassSched)
	e.stallSpans = reg.Histogram("pag_engine_barrier_stall_seconds", obs.ClassSched)
	e.overrunsG = reg.GaugeClass("pag_engine_paced_overruns", obs.ClassSched)
	e.trace = tr
}

// Add registers a protocol node; nodes act in registration order, which
// must therefore be deterministic for reproducible runs.
func (e *Engine) Add(p Protocol) {
	e.nodes = append(e.nodes, p)
	if s, ok := p.(Slotted); ok {
		e.slots = max(e.slots, s.ExchangeSlots())
	}
}

// Remove detaches a node immediately (it stops receiving phase calls);
// it reports whether the node was present. Traffic counters survive in
// the network layer.
func (e *Engine) Remove(id model.NodeID) bool {
	for i, n := range e.nodes {
		if n.ID() == id {
			e.nodes = append(e.nodes[:i], e.nodes[i+1:]...)
			return true
		}
	}
	return false
}

// Has reports whether a node is currently attached.
func (e *Engine) Has(id model.NodeID) bool {
	for _, n := range e.nodes {
		if n.ID() == id {
			return true
		}
	}
	return false
}

// Nodes returns the registered node count.
func (e *Engine) Nodes() int { return len(e.nodes) }

// OnRoundStart registers a hook invoked at the top of every round.
func (e *Engine) OnRoundStart(h RoundHook) { e.hooks = append(e.hooks, h) }

// Round returns the last completed round (0 before the first).
func (e *Engine) Round() model.Round { return e.round }

// PacedOverruns returns how many steps of paced rounds finished past their
// phase's deadline (always 0 on a network without a clock).
func (e *Engine) PacedOverruns() int { return e.overruns }

// RunRound advances one round through the four phases (and, after
// BeginRound, the remaining exchange slots of Slotted nodes), delivering
// all pending traffic after each. Hooks run single-threaded at the round
// top, in registration order, before any node acts.
func (e *Engine) RunRound() { e.runRound(func(int, int) int { return e.deliverAll() }) }

// RunPaced advances one round through the same phase sequence as
// RunRound, on a wall-clock schedule: round r begins at start + (r−1)·
// period, and each barrier drains the network until its phase's deadline
// instead of to quiescence. The exchange slots split the first quarter of
// the period evenly; MidRound, EndRound and CloseRound are given a quarter
// each. The network is the clock: one with DeliverUntil (TCPNet) waits for
// each deadline, while one without (MemNet) has no clock and is drained as
// RunRound drains it — so a paced run on MemNet is the stepped run, byte
// for byte.
func (e *Engine) RunPaced(start time.Time, period time.Duration) {
	c, ok := e.net.(interface{ DeliverUntil(time.Time) int })
	if !ok { // MemNet: no clock
		e.RunRound()
		return
	}
	at := start.Add(time.Duration(e.round) * period)
	quarter := period / 4
	e.runRound(func(k, slots int) int {
		slot := quarter / time.Duration(slots)
		deadline := at.Add(period) // CloseRound's barrier ends the round
		if k <= slots {
			deadline = at.Add(time.Duration(k) * slot)
		} else if k < slots+3 {
			deadline = at.Add(time.Duration(slots)*slot + time.Duration(k-slots)*quarter)
		}
		if time.Now().After(deadline) {
			e.overruns++
			e.overrunsG.Set(int64(e.overruns))
		}
		return c.DeliverUntil(deadline)
	})
}

// runRound is the one phase sequence behind RunRound and RunPaced. After
// step k of the round (k = 1 … slots+3, where slots = max(1, the exchange
// slot count): the exchange slots, then MidRound, EndRound and CloseRound)
// barrier(k, slots) drains the network and returns how many messages it
// delivered.
func (e *Engine) runRound(barrier func(k, slots int) int) {
	span := e.roundSpans.SpanStart()
	r := e.round + 1
	e.net.BeginRound()
	for _, h := range e.hooks {
		h(r)
	}
	if e.trace != nil {
		e.trace.Emit("round_begin", obs.F("round", r), obs.F("nodes", e.Nodes()))
	}
	shards := e.shardNodes()
	slots := max(e.slots, 1)
	delivered, k := 0, 0
	step := func(f func(Protocol)) {
		e.phase(shards, f)
		k++
		delivered += barrier(k, slots)
	}
	step(func(n Protocol) { n.BeginRound(r) })
	for s := 1; s < slots; s++ {
		step(func(n Protocol) {
			if sl, ok := n.(Slotted); ok {
				sl.OpenSlot(r, s)
			}
		})
	}
	step(func(n Protocol) { n.MidRound(r) })
	step(func(n Protocol) { n.EndRound(r) })
	step(func(n Protocol) { n.CloseRound(r) })
	e.round = r
	if e.baseline != nil {
		e.measured++
	}
	e.roundsC.Inc()
	e.deliveriesC.Add(uint64(delivered))
	if e.trace != nil {
		e.trace.Emit("round_end", obs.F("round", r), obs.F("delivered", delivered))
		// Every worker is parked at the last barrier: drain the tracer's
		// shard buffers here, so the round's events hit the journal before
		// the next round opens, in deterministic shard order.
		e.trace.Flush()
	}
	e.roundSpans.SpanEnd(span)
}

// Run advances n rounds.
func (e *Engine) Run(n int) {
	for i := 0; i < n; i++ {
		e.RunRound()
	}
}

// shardNodes partitions the current node set by id mod workers, keeping
// registration order within each shard; nil when stepping inline.
func (e *Engine) shardNodes() [][]Protocol {
	if e.mem == nil {
		return nil
	}
	shards := make([][]Protocol, e.workers)
	for _, n := range e.nodes {
		i := e.shardOf(n.ID())
		shards[i] = append(shards[i], n)
	}
	return shards
}

func (e *Engine) shardOf(id model.NodeID) int { return int(uint64(id) % uint64(e.workers)) }

// phase runs one step on every node: inline in registration order, or
// fanned out across the shards with a barrier on completion. A sharded
// phase, when instrumented, records each shard's step duration and its
// stall — the time the shard then spent parked at the barrier waiting for
// the slowest sibling. Timing is recorded after the barrier, off the
// workers' critical path.
func (e *Engine) phase(shards [][]Protocol, step func(Protocol)) {
	if shards == nil {
		for _, n := range e.nodes {
			step(n)
		}
		return
	}
	timed := e.shardSpans != nil
	var phaseStart time.Time
	var durs []time.Duration
	if timed {
		phaseStart = time.Now()
		durs = make([]time.Duration, len(shards))
	}
	var wg sync.WaitGroup
	for i, shard := range shards {
		if len(shard) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, ns []Protocol) {
			defer wg.Done()
			var start time.Time
			if timed {
				start = time.Now()
			}
			for _, n := range ns {
				step(n)
			}
			if timed {
				durs[i] = time.Since(start)
			}
		}(i, shard)
	}
	wg.Wait()
	if timed {
		total := time.Since(phaseStart)
		for _, d := range durs {
			if d > 0 {
				e.shardSpans.Observe(d.Seconds())
				e.stallSpans.Observe((total - d).Seconds())
			}
		}
	}
}

// deliverAll drains delivery waves until quiescence and returns how many
// messages it delivered. Inline it is the network's own DeliverAll.
// Sharded, the MemNet's DeliverWaves hands over each wave in canonical
// merged order, and it is partitioned by destination shard and replayed
// concurrently; one wave loop, one cap.
func (e *Engine) deliverAll() int {
	if e.mem == nil {
		return e.net.DeliverAll()
	}
	return e.mem.DeliverWaves(e.runSharded)
}

// runSharded replays one delivery wave with each destination shard's
// subsequence on its own goroutine. The buckets keep their arrays across
// waves, cleared once the wave is handled so no payload outlives it.
func (e *Engine) runSharded(ds []transport.Delivery) {
	if e.buckets == nil {
		e.buckets = make([][]transport.Delivery, e.workers)
	}
	for _, d := range ds {
		i := e.shardOf(d.Msg.To)
		e.buckets[i] = append(e.buckets[i], d)
	}
	var wg sync.WaitGroup
	for _, b := range e.buckets {
		if len(b) == 0 {
			continue
		}
		wg.Add(1)
		go func(sub []transport.Delivery) {
			defer wg.Done()
			for _, d := range sub {
				d.Handler(d.Msg)
			}
		}(b)
	}
	wg.Wait()
	for i, b := range e.buckets {
		clear(b)
		e.buckets[i] = b[:0]
	}
}

// StartMeasuring snapshots the members' traffic counters to open the
// steady-state measurement window: bandwidth statistics cover the rounds
// run afterwards.
func (e *Engine) StartMeasuring() {
	e.baseline = make(map[model.NodeID]transport.Traffic, len(e.nodes))
	for _, n := range e.nodes {
		e.baseline[n.ID()] = e.net.TrafficOf(n.ID())
	}
	e.measured = 0
}

// NodeBandwidthKbps returns one node's average bandwidth over the measured
// window in kbps. Each round is one second (§VII-A), and the per-node
// consumption is the mean of upload and download (dissemination traffic is
// symmetric in aggregate).
func (e *Engine) NodeBandwidthKbps(id model.NodeID) float64 {
	if e.measured == 0 {
		return 0
	}
	tr := e.net.TrafficOf(id)
	if base, ok := e.baseline[id]; ok {
		tr = tr.Sub(base)
	}
	bytes := float64(tr.BytesIn+tr.BytesOut) / 2
	seconds := float64(e.measured) * model.RoundDurationSeconds
	return bytes * 8 / 1000 / seconds
}

// BandwidthSample returns the members' bandwidth distribution over the
// measured window in ascending id order, excluding the listed nodes (the
// source is conventionally excluded, as its upload profile is not a
// client's).
func (e *Engine) BandwidthSample(exclude ...model.NodeID) stats.Sample {
	skip := make(map[model.NodeID]bool, len(exclude))
	for _, id := range exclude {
		skip[id] = true
	}
	ids := make([]model.NodeID, 0, len(e.nodes))
	for _, n := range e.nodes {
		ids = append(ids, n.ID())
	}
	slices.Sort(ids)
	xs := make([]float64, 0, len(ids))
	for _, id := range ids {
		if skip[id] {
			continue
		}
		xs = append(xs, e.NodeBandwidthKbps(id))
	}
	return stats.NewSample(xs)
}

// String summarises engine state.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{workers: %d, nodes: %d, round: %v}", e.workers, e.Nodes(), e.round)
}
