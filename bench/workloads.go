package main

import (
	"fmt"
	"runtime"
	"time"

	pag "repro"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/transport"
)

// warmupRounds precedes every measured window: past the 10-round playout
// delay, so content in flight, buffermaps and prime pools are steady and
// continuity is defined.
const warmupRounds = 12

// workload is one named set of inputs. The four differ in which layers
// carry the round: BENCHMARK.json gives each one's reason in a line,
// README.md at length.
type workload struct {
	name        string
	protocol    pag.Protocol
	nodes       int
	streamKbps  int
	modulusBits int
	tcp         bool
	workers     int // 0 = serial engine
	churn       bool
	warmup      int
	// rounds is the measured window of the full invocation; a -seconds
	// window runs for that long instead, but never fewer than minRounds.
	rounds, minRounds int
	minContinuity     float64
}

// churnScriptEnd is the round by which the churn script's last scripted
// consequence (the relapsed node's second eviction) has landed; a
// time-bounded window on pag_churn_144 runs at least this far so the
// eviction and rejection counts it checks are defined.
const churnScriptEnd = 40

var workloads = []workload{
	{ // the §VII-A population: core handlers and background prime search carry the round
		name:     "pag_mem_432",
		protocol: pag.ProtocolPAG, nodes: 432, streamKbps: 60, modulusBits: 128,
		warmup: warmupRounds, rounds: 16, minContinuity: 0.99,
	},
	{ // paper-faithful crypto sizes: hhash is the round, engine and transport are negligible
		name:     "pag_paper_12",
		protocol: pag.ProtocolPAG, nodes: 12, streamKbps: 300, modulusBits: 512,
		warmup: warmupRounds, rounds: 16, minContinuity: 0.99,
	},
	{ // no homomorphic hashing, real sockets: the bypass for every hhash change
		name:     "acting_tcp_432",
		protocol: pag.ProtocolAcTinG, nodes: 432, streamKbps: 60, modulusBits: 128, tcp: true,
		warmup: warmupRounds, rounds: 150, minContinuity: 0.90,
	},
	{ // dynamic roster, membership epochs, punishment loop, shards and barriers
		name:     "pag_churn_144",
		protocol: pag.ProtocolPAG, nodes: 144, streamKbps: 60, modulusBits: 128,
		workers: min(runtime.NumCPU(), 4), churn: true,
		warmup: warmupRounds, rounds: 60, minRounds: churnScriptEnd - warmupRounds, minContinuity: 0.99,
	},
}

// smokeSized shrinks a workload to the tier-1 test's sizing: same shape
// (protocol, transport, engine, scenario), N=16 and 2+3 rounds, crypto and
// stream rate capped so the test stays within seconds. The window is too
// short for the outcome checks, so they are off.
func smokeSized(w workload) workload {
	w.nodes, w.warmup, w.rounds, w.minRounds, w.minContinuity = 16, 2, 3, 0, 0
	w.modulusBits, w.streamKbps = min(w.modulusBits, 256), min(w.streamKbps, 120)
	return w
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// churnScenario is the pag_churn_144 script, owned by the benchmark so the
// canned helpers can change without moving its numbers. The last node
// free-rides from round 3 and is evicted at 6 convictions for 14 rounds;
// it probes the quarantine at rounds 12 and 16 (both rejected), two fresh
// ids join at 15, it re-joins legitimately at 26 and relapses at 27.
// Graceful churn (crash fraction 0, see README.md for why) runs from round
// 13 to the end of any window.
func churnScenario(nodes int, seed uint64) scenario.Scenario {
	attacker := model.NodeID(nodes)
	return scenario.Scenario{
		Name:     "bench-churn",
		Seed:     seed,
		Rounds:   1 << 20,
		Eviction: &scenario.Eviction{ConvictionThreshold: 6, QuarantineRounds: 14},
		Events: []scenario.Event{
			{Round: 3, Action: scenario.ActionSetBehavior, Node: attacker, Behavior: scenario.ProfileFreeRider},
			{Round: 12, Action: scenario.ActionJoin, Node: attacker},
			{Round: 16, Action: scenario.ActionJoin, Node: attacker},
			{Round: 15, Action: scenario.ActionJoin},
			{Round: 15, Action: scenario.ActionJoin},
			{Round: 26, Action: scenario.ActionJoin, Node: attacker},
			{Round: 27, Action: scenario.ActionSetBehavior, Node: attacker, Behavior: scenario.ProfileFreeRider},
		},
		Churn: &scenario.Churn{FromRound: 13, ToRound: 1 << 20, JoinsPerRound: 0.5, LeavesPerRound: 0.5},
	}
}

// instruments is what a traced run attaches; nil for the timed runs.
type instruments struct {
	reg    *obs.Registry
	events *lineCounter // sink of the JSONL tracer
	rec    *recorder    // boundary spans; nil on the parallel engine
	// onStart runs once the warm-up is over, before the clock starts;
	// onRound at the top of every measured round.
	onStart, onRound func()
}

// live is a built session with handles on the layers below it.
type live struct {
	*pag.Session
	net transport.FaultyNetwork // the real network, never the wrapper
	tcp *transport.TCPNet       // nil on MemNet
}

// build assembles the workload's session for one seed. The benchmark
// always supplies the network itself so it keeps a handle for traffic and
// I/O counters, and so a traced serial run can interpose the boundary
// wrapper.
func (w workload) build(seed uint64, ins *instruments) (*live, error) {
	l := &live{}
	cfg := pag.SessionConfig{
		Nodes:       w.nodes,
		Protocol:    w.protocol,
		StreamKbps:  w.streamKbps,
		ModulusBits: w.modulusBits,
		Seed:        seed,
		Workers:     w.workers,
	}
	cfg.NewNetwork = func() transport.FaultyNetwork {
		if w.tcp {
			l.tcp = transport.NewTCPNet(nil)
			l.tcp.SetDynamic("127.0.0.1")
			l.tcp.SetStepped(5 * time.Second)
			l.net = l.tcp
		} else {
			l.net = transport.NewMemNet()
		}
		if ins != nil && ins.rec != nil {
			return &spanNet{FaultyNetwork: l.net, rec: ins.rec}
		}
		return l.net
	}
	if w.churn {
		sc := churnScenario(w.nodes, seed)
		cfg.Scenario = &sc
	}
	if ins != nil {
		cfg.Obs = ins.reg
		cfg.Trace = obs.NewTracer(ins.events)
	}
	s, err := pag.NewSession(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	l.Session = s
	return l, nil
}
