package scenario

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// This file ships the canned scenarios the evaluation harness and the CLI
// use. Each constructor takes the knobs worth varying and fills in
// paper-plausible defaults; Names/ByName expose them to cmd/pag-scenario.

// FlashCrowd models a live event going viral: `joiners` fresh nodes all
// arrive at round `at`, then the grown population streams on. The
// interesting question is whether the epoch transition re-draws
// dissemination so the newcomers reach full continuity.
func FlashCrowd(joiners int, at model.Round, rounds int) Scenario {
	s := Scenario{
		Name: "flash-crowd",
		Description: fmt.Sprintf(
			"%d nodes join simultaneously at round %v (one epoch transition, population grows mid-stream)",
			joiners, at),
		Seed:         1,
		Rounds:       rounds,
		WarmupRounds: int(at) - 1,
	}
	for i := 0; i < joiners; i++ {
		s.Events = append(s.Events, Event{Round: at, Action: ActionJoin})
	}
	return s
}

// SteadyChurn models a session in steady turnover: `ratePerRound` joins
// and as many departures every round between warmup and the end, a
// `crashFrac` share of the departures crashing with a 2-round detection
// latency instead of leaving cleanly. With rate 0.2 over 20 measured
// rounds on a 20-node system, roughly 20% of the population turns over —
// the paper's "realistic live-streaming conditions" regime.
func SteadyChurn(ratePerRound, crashFrac float64, warmup, rounds int) Scenario {
	return Scenario{
		Name: "steady-churn",
		Description: fmt.Sprintf(
			"%.2g joins and departures per round (%.0f%% of them crashes), uniform distribution",
			ratePerRound, crashFrac*100),
		Seed:         1,
		Rounds:       rounds,
		WarmupRounds: warmup,
		Churn: &Churn{
			FromRound:         model.Round(warmup + 1),
			ToRound:           model.Round(rounds),
			JoinsPerRound:     ratePerRound,
			LeavesPerRound:    ratePerRound,
			CrashFraction:     crashFrac,
			CrashLingerRounds: 2,
			Distribution:      DistUniform,
		},
	}
}

// TransientPartition cuts `islanders` off from the rest of the network
// between rounds `from` and `to` (exclusive heal), then lets them catch
// up. Continuity inside the island collapses during the cut and must
// recover afterwards.
func TransientPartition(islanders []model.NodeID, from, to model.Round, rounds int) Scenario {
	island := append([]model.NodeID(nil), islanders...)
	sort.Slice(island, func(i, j int) bool { return island[i] < island[j] })
	return Scenario{
		Name: "transient-partition",
		Description: fmt.Sprintf(
			"nodes %v partitioned from the rest during rounds [%v, %v), then healed",
			island, from, to),
		Seed:         1,
		Rounds:       rounds,
		WarmupRounds: int(from) - 1,
		Events: []Event{
			{Round: from, Action: ActionPartition, Groups: [][]model.NodeID{island}},
			{Round: to, Action: ActionHeal},
		},
	}
}

// DelayedCoalition models adversaries that behave correctly through the
// warm-up — building an honest-looking history — and activate together at
// round `at`: the listed nodes turn free-rider. Accountability must still
// convict them from their post-activation deviations alone.
func DelayedCoalition(adversaries []model.NodeID, at model.Round, rounds int) Scenario {
	members := append([]model.NodeID(nil), adversaries...)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	s := Scenario{
		Name: "delayed-coalition",
		Description: fmt.Sprintf(
			"nodes %v turn %s at round %v after an honest warm-up", members, ProfileFreeRider, at),
		Seed:         1,
		Rounds:       rounds,
		WarmupRounds: int(at) - 1,
	}
	for _, id := range members {
		s.Events = append(s.Events, Event{
			Round: at, Action: ActionSetBehavior, Node: id, Behavior: ProfileFreeRider,
		})
	}
	return s
}

// RejoinAttack scripts a punishment-loop stress test: the attacker turns
// free-rider at round `at`, accumulates verdicts until the eviction policy
// (threshold convictions, `quarantine` rounds of id ban) expels it, then
// tries to re-join its old id twice while quarantined (both rejected),
// slips two fresh-id Sybils in mid-quarantine (admitted — identity-based
// quarantine cannot stop fresh identities without admission control, which
// the report documents), re-joins legitimately after expiry, and promptly
// relapses — exercising the re-conviction path.
func RejoinAttack(attacker model.NodeID, at model.Round, threshold, quarantine, rounds int) Scenario {
	return Scenario{
		Name: "rejoin-attack",
		Description: fmt.Sprintf(
			"node %v free-rides from round %v, is evicted at %d convictions, probes its %d-round quarantine with rejoins and Sybil churn, then relapses after re-admission",
			attacker, at, threshold, quarantine),
		Seed:         1,
		Rounds:       rounds,
		WarmupRounds: 2,
		Eviction:     &Eviction{ConvictionThreshold: threshold, QuarantineRounds: quarantine},
		Events: []Event{
			{Round: at, Action: ActionSetBehavior, Node: attacker, Behavior: ProfileFreeRider},
			// Quarantine probes under the banned id.
			{Round: 12, Action: ActionJoin, Node: attacker},
			{Round: 16, Action: ActionJoin, Node: attacker},
			// Sybil churn: fresh ids sail through the id quarantine.
			{Round: 15, Action: ActionJoin},
			{Round: 15, Action: ActionJoin},
			// Legitimate re-admission after the quarantine expires...
			{Round: 26, Action: ActionJoin, Node: attacker},
			// ...followed by an immediate relapse.
			{Round: 27, Action: ActionSetBehavior, Node: attacker, Behavior: ProfileFreeRider},
		},
	}
}

// CliffRatios is CapacityCliff's cap sweep, as multiples of the stream
// rate: generous headroom down to parity, bracketing the PAG/AcTinG
// overhead ratios the paper reports (≈3.5× and ≈1.5× at 300 kbps).
// Exported so experiment runners can size their round budgets to the
// sweep's length instead of hardcoding it.
var CliffRatios = []float64{8, 4, 2, 1.5, 1}

// CapacityCliff sweeps a population-wide queued upload cap downward
// toward the stream rate — the in-simulation form of Table II's
// sustainable-quality question. After `warmup` uncapped rounds, every
// non-source member's uplink is capped for `phaseRounds` rounds at each
// multiple in CliffRatios of the `streamKbps` source rate.
// While the cap comfortably exceeds the protocol's per-node demand the
// link queue stays empty and continuity holds; as it crosses the
// protocol's overhead ratio the queue model starts deferring (bytes
// arrive late) and finally expiring (bytes arrive after their playout
// window) — the continuity cliff. Each cap change opens a measurement
// epoch, so the report slices continuity, deferral and expiry per
// capacity level.
func CapacityCliff(streamKbps, warmup, phaseRounds int) Scenario {
	s := Scenario{
		Name: "capacity-cliff",
		Description: fmt.Sprintf(
			"per-node queued upload caps sweep %gx down to %gx the %d kbps stream rate (%d rounds per level) — the Table II continuity cliff, measured",
			CliffRatios[0], CliffRatios[len(CliffRatios)-1], streamKbps, phaseRounds),
		Seed:         1,
		Rounds:       warmup + phaseRounds*len(CliffRatios),
		WarmupRounds: warmup,
	}
	for i, ratio := range CliffRatios {
		s.Events = append(s.Events, Event{
			Round:   model.Round(warmup + i*phaseRounds + 1),
			Action:  ActionSetQueueCap, // Node omitted: every non-source member
			CapKbps: int(ratio * float64(streamKbps)),
		})
	}
	return s
}

// Names lists the canned scenarios ByName serves, in display order.
func Names() []string {
	return []string{"flash-crowd", "steady-churn", "transient-partition",
		"delayed-coalition", "rejoin-attack", "capacity-cliff"}
}

// ByName returns a canned scenario with defaults sized for a session of
// `nodes` members (node 1 is the source and node ids 2..nodes exist) and
// a source rate of streamKbps (<= 0 defaults to 60, cmd/pag-scenario's
// default) — the rate only matters to capacity-cliff, whose caps are
// absolute multiples of it.
func ByName(name string, nodes, streamKbps int) (Scenario, error) {
	if streamKbps <= 0 {
		streamKbps = 60
	}
	switch name {
	case "flash-crowd":
		return FlashCrowd(nodes/2, 11, 30), nil
	case "steady-churn":
		return SteadyChurn(0.2, 0.25, 10, 30), nil
	case "transient-partition":
		// Cut off the two highest client ids for eight rounds.
		island := []model.NodeID{model.NodeID(nodes - 1), model.NodeID(nodes)}
		return TransientPartition(island, 11, 19, 30), nil
	case "delayed-coalition":
		advs := []model.NodeID{model.NodeID(nodes - 1), model.NodeID(nodes)}
		return DelayedCoalition(advs, 11, 30), nil
	case "rejoin-attack":
		return RejoinAttack(model.NodeID(nodes), 3, 6, 14, 30), nil
	case "capacity-cliff":
		return CapacityCliff(streamKbps, 4, 6), nil
	default:
		return Scenario{}, fmt.Errorf("scenario: unknown canned scenario %q (have %v)", name, Names())
	}
}
