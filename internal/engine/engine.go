// Package engine is the sharded parallel round engine: it drives the same
// four-phase rounds as the serial engine (internal/sim) but fans the node
// steps of each phase out across a worker pool, merging outbound traffic
// at the phase barriers.
//
// # Determinism invariant
//
// A run is byte-identical to the serial engine's at any worker count. The
// invariant is structural, not best-effort, and rests on three properties:
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
//
// # Sharding model
//
// Nodes are assigned to shards by id (id mod workers), so a node's phase
// steps and its incoming deliveries always run on the same shard and no
// node is ever touched by two goroutines concurrently. Shard assignment
// affects scheduling only; results are identical under any assignment.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// Engine is the parallel round engine. It implements sim.Stepper, so a
// session can swap it in for the serial engine transparently; the node,
// hook and event bookkeeping (sim.Roster) and the bandwidth measurement
// (sim.Meter) are shared with the serial engine, so the two cannot drift
// apart on anything but the stepping itself.
//
// Mutating calls (Add, Remove, ScheduleAt, OnRoundStart, StartMeasuring)
// are only legal between rounds or from round-top events/hooks, which run
// single-threaded before any phase fans out.
type Engine struct {
	sim.Roster
	meter   sim.Meter
	net     *transport.MemNet
	workers int
	round   model.Round

	// Observability (nil without a registry). Rounds and deliveries are
	// deterministic counts under the same metric names as the serial
	// engine; round durations are ClassTimed (deterministic count,
	// wall-clock buckets); shard durations and merge-barrier stalls are
	// ClassSched — their very observation count depends on the worker
	// count, so they are excluded from deterministic snapshots entirely.
	roundsC     *obs.Counter
	deliveriesC *obs.Counter
	roundSpans  *obs.Histogram
	shardSpans  *obs.Histogram
	stallSpans  *obs.Histogram
	trace       *obs.Tracer
}

var _ sim.Stepper = (*Engine)(nil)

// New creates a parallel engine over a MemNet with the given worker count;
// workers <= 0 selects GOMAXPROCS.
func New(net *transport.MemNet, workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{net: net, workers: workers, meter: sim.NewMeter(net)}
}

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// Instrument attaches the observability registry and tracer (either may
// be nil): counters plus round_begin/round_end trace events bracketing
// every round, identical in form to the serial engine's — the round
// markers are emitted single-threaded (round top / after the last
// barrier), so they are part of the deterministic event class.
func (e *Engine) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	e.roundsC = reg.Counter("pag_engine_rounds_total")
	e.deliveriesC = reg.Counter("pag_engine_deliveries_total")
	e.roundSpans = reg.Histogram("pag_engine_round_seconds", obs.ClassTimed, nil)
	e.shardSpans = reg.Histogram("pag_engine_shard_seconds", obs.ClassSched, nil)
	e.stallSpans = reg.Histogram("pag_engine_barrier_stall_seconds", obs.ClassSched, nil)
	e.trace = tr
}

// Round returns the last completed round (0 before the first).
func (e *Engine) Round() model.Round { return e.round }

// shardIndex maps a node id to its shard. Phase steps and deliveries both
// use it, so a node is always driven by one goroutine at a time.
func (e *Engine) shardIndex(id model.NodeID) int {
	return int(uint64(id) % uint64(e.workers))
}

// shardNodes partitions the current node set by shard, preserving
// registration order within each shard.
func (e *Engine) shardNodes() [][]sim.Protocol {
	shards := make([][]sim.Protocol, e.workers)
	for _, n := range e.Members() {
		i := e.shardIndex(n.ID())
		shards[i] = append(shards[i], n)
	}
	return shards
}

// phase fans one phase step out across the shards and barriers on
// completion. When instrumented it records each shard's step duration
// and its stall — the time the shard then spent parked at the merge
// barrier waiting for the slowest sibling (load-imbalance visibility for
// the Fig 9 scaling work). Timing is recorded after the barrier, off the
// workers' critical path.
func (e *Engine) phase(shards [][]sim.Protocol, step func(sim.Protocol)) {
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
		go func(i int, ns []sim.Protocol) {
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

// deliverAll drains delivery waves until quiescence, sharing the serial
// engine's transport.MaxDeliveryWaves cap (equal caps are part of the
// byte-identical contract). Each wave is taken from the network in
// canonical merged order, partitioned by destination shard, and replayed
// concurrently; messages sent during a wave form the next wave.
func (e *Engine) deliverAll() int {
	total := 0
	for wave := 0; wave < transport.MaxDeliveryWaves; wave++ {
		ds := e.net.TakeWave()
		if len(ds) == 0 {
			return total
		}
		total += len(ds)
		buckets := make([][]transport.Delivery, e.workers)
		for _, d := range ds {
			i := e.shardIndex(d.Msg.To)
			buckets[i] = append(buckets[i], d)
		}
		var wg sync.WaitGroup
		for _, b := range buckets {
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
	}
	return total
}

// RunRound advances one round through the four phases, with the remaining
// exchange slots of Slotted nodes after BeginRound. Events and hooks run
// single-threaded at the round top; each phase and slot step then fans out
// across the shards and merges at its barrier.
func (e *Engine) RunRound() {
	span := e.roundSpans.SpanStart()
	r := e.round + 1
	e.net.BeginRound()
	e.OpenRound(r)
	if e.trace != nil {
		e.trace.Emit("round_begin", obs.F("round", r), obs.F("nodes", e.Nodes()))
	}
	shards := e.shardNodes()
	delivered := 0
	e.phase(shards, func(n sim.Protocol) { n.BeginRound(r) })
	delivered += e.deliverAll()
	for k := 1; k < e.Slots(); k++ {
		e.phase(shards, func(n sim.Protocol) { sim.OpenSlot(n, r, k) })
		delivered += e.deliverAll()
	}
	e.phase(shards, func(n sim.Protocol) { n.MidRound(r) })
	delivered += e.deliverAll()
	e.phase(shards, func(n sim.Protocol) { n.EndRound(r) })
	delivered += e.deliverAll()
	e.phase(shards, func(n sim.Protocol) { n.CloseRound(r) })
	delivered += e.deliverAll()
	e.round = r
	e.meter.RoundDone()
	e.roundsC.Inc()
	e.deliveriesC.Add(uint64(delivered))
	if e.trace != nil {
		e.trace.Emit("round_end", obs.F("round", r), obs.F("delivered", delivered))
		// All workers are parked at the last barrier: drain the shard
		// buffers here so the round's events hit the journal before the
		// next round opens, in deterministic shard order.
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

// StartMeasuring opens the steady-state measurement window (identical
// semantics to the serial engine — the shared sim.Meter).
func (e *Engine) StartMeasuring() { e.meter.Start(e.Members()) }

// NodeBandwidthKbps returns one node's average bandwidth over the
// measured window in kbps.
func (e *Engine) NodeBandwidthKbps(id model.NodeID) float64 {
	return e.meter.NodeBandwidthKbps(id)
}

// BandwidthSample returns the per-node bandwidth distribution over the
// measured window, excluding the listed nodes.
func (e *Engine) BandwidthSample(exclude ...model.NodeID) stats.Sample {
	return e.meter.Sample(e.Members(), exclude...)
}

// String summarises engine state.
func (e *Engine) String() string {
	return fmt.Sprintf("engine.Engine{workers: %d, nodes: %d, round: %v}",
		e.workers, e.Nodes(), e.round)
}
