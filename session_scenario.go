package pag

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/acting"
	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/rac"
	"repro/internal/scenario"
	"repro/internal/streaming"
	"repro/internal/transport"
)

// This file makes a Session drivable by a scenario timeline: it implements
// scenario.Applier (churn, fault-plane and adversary-activation hooks) and
// the per-epoch metrics a scripted run is evaluated by.
//
// All Applier methods fire at the top of a round, before any node acts —
// the scenario hook registered in NewSession guarantees it. Calling them
// mid-phase from application code is not supported.

var _ scenario.Applier = (*Session)(nil)

// epochMark snapshots the traffic and bandwidth-plane counters at a
// measurement-epoch boundary (a membership change, or a scripted queue-cap
// change) so per-epoch bandwidth, deferral and expiry can be computed as
// deltas.
type epochMark struct {
	start       model.Round
	traffic     transport.Traffic
	deferred    uint64
	expired     uint64
	queueDepth  int
	queueByNode []transport.QueueBacklog
}

// clientTraffic is the aggregate traffic excluding the source — epoch
// bandwidth is a client-side metric, like BandwidthSample (Fig 7).
func (s *Session) clientTraffic() transport.Traffic {
	total := s.net.TotalTraffic()
	return total.Sub(s.net.TrafficOf(SourceID))
}

// bumpEpoch records a measurement-epoch transition effective at round r —
// a membership change or a queue-cap change.
func (s *Session) bumpEpoch(r model.Round) {
	last := &s.epochMarks[len(s.epochMarks)-1]
	if last.start == r {
		return // several events in one round share an epoch mark
	}
	s.epochMarks = append(s.epochMarks, s.markAt(r))
}

// markAt snapshots the session's cumulative counters for an epoch opening
// at round r.
func (s *Session) markAt(r model.Round) epochMark {
	f := s.net.Faults()
	return epochMark{
		start:       r,
		traffic:     s.clientTraffic(),
		deferred:    f.Deferred(),
		expired:     f.CapExpired(),
		queueDepth:  f.QueueDepth(),
		queueByNode: f.QueueBacklogs(),
	}
}

// Join implements scenario.Applier: it mints an identity for the new
// member (a fresh session-assigned id when id is NoNode), attaches a node
// of the session's protocol, and opens a membership epoch at round r.
//
// An id the punishment loop evicted may re-join — with a fresh identity,
// like any joiner — once its quarantine expires; mid-quarantine attempts
// are rejected (and counted as rejoin rejections). Other past members
// stay barred for good: their keys left with them, so they re-enter under
// a fresh id.
func (s *Session) Join(r model.Round, id model.NodeID) (model.NodeID, error) {
	if id == model.NoNode {
		id = s.nextID
	}
	if _, was := s.players[id]; was {
		if !s.evicted[id] {
			return model.NoNode, fmt.Errorf("pag: node %v was already a session member (rejoin under a fresh id instead)", id)
		}
		if _, gone := s.departed[id]; !gone {
			return model.NoNode, fmt.Errorf("pag: node %v is already a member", id)
		}
	}
	identity, err := s.suite.NewIdentity(id)
	if err != nil {
		return model.NoNode, fmt.Errorf("pag: identity for joiner %v: %w", id, err)
	}
	player := streaming.NewPlayer(0)

	// Membership first: node construction reads the directory (RAC seats
	// itself on the ring of current members), and the directory owns the
	// quarantine verdict on evicted ids. Rolled back on failure.
	if err := s.dir.Join(id, r); err != nil {
		var q *membership.QuarantineError
		if errors.As(err, &q) {
			s.rejoinRejections = append(s.rejoinRejections,
				RejoinRejection{Round: r, Node: id, Until: q.Until})
		}
		return model.NoNode, fmt.Errorf("pag: joining %v: %w", id, err)
	}
	// A re-admitted evictee comes back from the dead: lift the fault
	// plane's down flag its eviction set, so traffic reaches it again.
	if s.evicted[id] {
		s.net.Faults().SetNodeDown(id, false)
	}
	rollback := func(err error) (model.NodeID, error) {
		_ = s.dir.DropLastEpoch()
		s.net.Unregister(id)
		return model.NoNode, err
	}
	switch s.cfg.Protocol {
	case ProtocolPAG:
		n, err := s.buildPAGNode(id, s.suite, identity, s.params, s.dir, player)
		if err != nil {
			return rollback(err)
		}
		s.pagNodes[id] = n
		s.engine.Add(n)
	case ProtocolAcTinG:
		n, err := s.buildActingNode(id, s.suite, identity, s.dir, player)
		if err != nil {
			return rollback(err)
		}
		s.actingNodes[id] = n
		s.engine.Add(n)
	case ProtocolRAC:
		n, err := s.buildRACNode(id, s.suite, identity, s.dir, player)
		if err != nil {
			return rollback(err)
		}
		s.racNodes[id] = n
		s.engine.Add(n)
	}
	s.players[id] = player
	s.joinedChunk[id] = s.source.Emitted()
	// A re-admitted evictee is live again — and its one-time re-join
	// credential is spent: if it departs again without a fresh eviction,
	// it is barred for good like any other past member.
	delete(s.departed, id)
	delete(s.evicted, id)
	if id >= s.nextID {
		s.nextID = id + 1
	}
	s.bumpEpoch(r)
	return id, nil
}

// Leave implements scenario.Applier: a graceful departure — membership
// re-draws the same round, so nobody holds obligations against the node.
func (s *Session) Leave(r model.Round, id model.NodeID) error {
	if id == SourceID {
		return fmt.Errorf("pag: the source cannot leave")
	}
	if gone, was := s.departed[id]; was {
		return fmt.Errorf("pag: node %v already departed at %v", id, gone)
	}
	if err := s.dir.Leave(id, r); err != nil {
		return fmt.Errorf("pag: leave of %v: %w", id, err)
	}
	s.depart(id, r)
	s.bumpEpoch(r)
	return nil
}

// depart takes a node out of the running session at round r, for every
// way of leaving (graceful, crash, eviction). The engine stops stepping
// it; the down flag drops anything already heading its way and
// deregistering releases its endpoint — on a TCP transport that is a real
// listener-and-connection teardown, on MemNet it makes later sends to the
// id fail fast instead of being charged and fault-dropped. Traffic
// counters survive either way. A PAG node, which carries a 24-round update
// store and its monitors' bookkeeping, lets go of them: the session reads
// nothing but counters from a departed node, and a long churn script
// would otherwise keep the state of everyone who ever left.
func (s *Session) depart(id model.NodeID, r model.Round) {
	s.engine.Remove(id)
	s.net.Faults().SetNodeDown(id, true)
	s.net.Unregister(id)
	s.departed[id] = r
	if n := s.pagNodes[id]; n != nil {
		n.Retire()
	}
}

// Crash implements scenario.Applier: the node goes silent immediately but
// stays a member for lingerRounds (failure-detection latency) — during the
// lingering window its monitors see an unresponsive member, exactly the
// observation an R1 deviation produces.
func (s *Session) Crash(r model.Round, id model.NodeID, lingerRounds int) error {
	if id == SourceID {
		return fmt.Errorf("pag: the source cannot crash (assumed correct, §III)")
	}
	if !s.dir.Contains(id) {
		return fmt.Errorf("pag: crash of non-member %v", id)
	}
	if gone, was := s.departed[id]; was {
		return fmt.Errorf("pag: node %v already departed at %v", id, gone)
	}
	if lingerRounds <= 0 {
		return s.Leave(r, id)
	}
	s.depart(id, r)
	s.engine.ScheduleAt(r+model.Round(lingerRounds), func(rr model.Round) {
		// Detection: the membership drops the crashed node. A failed
		// removal (system already at minimum size) keeps it as a
		// permanently silent member — which monitors keep convicting,
		// as they should.
		if s.dir.Contains(id) && s.dir.Leave(id, rr) == nil {
			s.bumpEpoch(rr)
		}
	})
	return nil
}

// SetLossRate implements scenario.Applier. Like every fault hook below it
// drives the transport's FaultPlane through the FaultyNetwork interface,
// so the same scripted timeline runs over MemNet or TCPNet unchanged.
func (s *Session) SetLossRate(rate float64) { s.net.Faults().SetLossRate(rate) }

// Partition implements scenario.Applier.
func (s *Session) Partition(groups [][]model.NodeID) { s.net.Faults().SetPartition(groups...) }

// Heal implements scenario.Applier.
func (s *Session) Heal() { s.net.Faults().Heal() }

// SetUploadCap implements scenario.Applier (kbps of upload per node; the
// transport's queued link model — over-budget messages defer rather than
// drop).
func (s *Session) SetUploadCap(id model.NodeID, kbps int) {
	s.net.Faults().SetUploadCapKbps(id, kbps)
}

// SetQueueCap implements scenario.Applier: the link-model upload cap. It
// caps the node (kbps; 0 removes), optionally retunes the queue-expiry
// deadline (negative disables expiry, 0 keeps the current deadline), and
// opens a measurement epoch at the current round so the report slices
// continuity and queue pressure per capacity level — the measured form of
// Table II's sustainable-quality sweep.
func (s *Session) SetQueueCap(id model.NodeID, kbps, deadlineRounds int) {
	f := s.net.Faults()
	f.SetUploadCapKbps(id, kbps)
	if deadlineRounds != 0 {
		f.SetQueueDeadline(deadlineRounds)
	}
	// Scenario events fire at the top of the round after the last
	// completed one.
	s.bumpEpoch(s.engine.Round() + 1)
}

// SetBehavior implements scenario.Applier: it maps the protocol-agnostic
// profile onto the session protocol's deviation knobs.
func (s *Session) SetBehavior(id model.NodeID, profile scenario.BehaviorProfile) error {
	if id == SourceID {
		return fmt.Errorf("pag: the source is assumed correct (§III)")
	}
	switch s.cfg.Protocol {
	case ProtocolPAG:
		n, ok := s.pagNodes[id]
		if !ok {
			return fmt.Errorf("pag: no PAG node %v", id)
		}
		b, known := core.BehaviorForProfile(string(profile))
		if !known {
			return fmt.Errorf("pag: unknown behavior profile %q", profile)
		}
		n.SetBehavior(b)
	case ProtocolAcTinG:
		n, ok := s.actingNodes[id]
		if !ok {
			return fmt.Errorf("pag: no AcTinG node %v", id)
		}
		switch profile {
		case scenario.ProfileCorrect:
			n.SetBehavior(acting.Behavior{})
		case scenario.ProfileFreeRider, scenario.ProfileRotationDodger:
			// AcTinG has no monitor rotation; the dodger degenerates to
			// the plain free-rider.
			n.SetBehavior(acting.Behavior{SkipPropose: true})
		case scenario.ProfileColluder:
			n.SetBehavior(acting.Behavior{RefuseAudit: true})
		default:
			return fmt.Errorf("pag: unknown behavior profile %q", profile)
		}
	case ProtocolRAC:
		n, ok := s.racNodes[id]
		if !ok {
			return fmt.Errorf("pag: no RAC node %v", id)
		}
		switch profile {
		case scenario.ProfileCorrect:
			n.SetBehavior(rac.Behavior{})
		case scenario.ProfileFreeRider, scenario.ProfileRotationDodger:
			// RAC has no monitor rotation; the dodger degenerates to the
			// plain free-rider.
			n.SetBehavior(rac.Behavior{DropRelays: true})
		case scenario.ProfileColluder:
			n.SetBehavior(rac.Behavior{NoCover: true})
		default:
			return fmt.Errorf("pag: unknown behavior profile %q", profile)
		}
	}
	return nil
}

// ChurnTargets implements scenario.Applier: every current member except
// the source — and except crashed-but-undetected nodes, which are already
// gone in every sense the churn generator cares about — is a fair
// leave/crash victim.
func (s *Session) ChurnTargets() []model.NodeID {
	var out []model.NodeID
	for _, id := range s.dir.Nodes() {
		if id == SourceID {
			continue
		}
		if _, gone := s.departed[id]; gone {
			continue
		}
		out = append(out, id)
	}
	return out
}

// ScenarioJournal returns the applied-event log of the driving timeline
// (nil without a scenario).
func (s *Session) ScenarioJournal() []scenario.Applied {
	if s.timeline == nil {
		return nil
	}
	return s.timeline.Journal()
}

// Members returns the current member list.
func (s *Session) Members() []model.NodeID { return s.dir.Nodes() }

// ---------------------------------------------------------------------------
// Per-epoch metrics
// ---------------------------------------------------------------------------

// EpochStat summarises one measurement epoch of a scripted run. An epoch
// opens at a membership transition or at a scripted queue-cap change
// (set_queue_cap), so capacity sweeps slice cleanly even with the
// membership static.
type EpochStat struct {
	// Index is the 0-based epoch number; StartRound/EndRound bound it
	// (inclusive; the last epoch ends at the last completed round).
	Index      int         `json:"index"`
	StartRound model.Round `json:"start_round"`
	EndRound   model.Round `json:"end_round"`
	// Members is the membership size during the epoch (constant by
	// construction — a membership change opens a new epoch; queue-cap
	// epochs inherit the size unchanged).
	Members int `json:"members"`
	// MeanContinuity averages, over the epoch's non-source members, the
	// delivery ratio of the chunks whose playout deadline fell inside
	// the epoch.
	MeanContinuity float64 `json:"mean_continuity"`
	// MeanBandwidthKbps is the per-client bandwidth averaged over the
	// epoch (mean of upload and download, as in Fig 7).
	MeanBandwidthKbps float64 `json:"mean_bandwidth_kbps"`
	// Verdicts counts the deduplicated proofs of misbehaviour raised
	// during the epoch, across all protocols in the session.
	Verdicts int `json:"verdicts"`
	// Deferred and Expired count the bandwidth plane's activity during
	// the epoch: messages the queued link model held back for a later
	// round, and queued messages dropped because they out-aged the
	// playout deadline before their cap released them. QueueDepth is the
	// backlog still waiting at the epoch's end. Under an upload cap these
	// three separate queue pressure (late bytes) from drops (gone bytes):
	// a healthy capped epoch defers little and expires nothing; past the
	// continuity cliff deferral explodes and expiry follows. One boundary
	// caveat: an interior epoch's Expired includes the round-boundary
	// drain that opened the next epoch, while the run's final epoch ends
	// with no trailing drain — backlog that would expire at the next
	// boundary still sits in its QueueDepth instead.
	Deferred   uint64 `json:"deferred"`
	Expired    uint64 `json:"expired"`
	QueueDepth int    `json:"queue_depth"`
	// QueueDepthByNode breaks the epoch-end backlog down per capped
	// sender, ascending id, zero-depth nodes omitted (empty/nil when no
	// queue holds anything) — which link is drowning, not just that one
	// is.
	QueueDepthByNode []QueueBacklog `json:"queue_depth_by_node,omitempty"`
	// Convictions counts judgments the punishment loop pronounced during
	// the epoch; Evictions the ones that actually removed a member (a
	// membership at minimum size cannot shrink), and RejoinRejections the
	// Join attempts bounced by active quarantines. All zero without an
	// armed eviction policy.
	Convictions      int `json:"convictions"`
	Evictions        int `json:"evictions"`
	RejoinRejections int `json:"rejoin_rejections"`
}

// EpochStats slices the run into its measurement epochs (membership
// transitions and scripted queue-cap changes) and reports continuity,
// bandwidth, queue pressure and verdicts per epoch. A static run yields
// one epoch covering every completed round.
func (s *Session) EpochStats() []EpochStat {
	now := s.engine.Round()
	if now == 0 {
		return nil
	}
	verdictRounds := s.verdictRounds()
	out := make([]EpochStat, 0, len(s.epochMarks))
	for i, mark := range s.epochMarks {
		if mark.start > now {
			break // transition scheduled past the last completed round
		}
		end := now
		endMark := s.markAt(now + 1) // the still-open epoch ends "now"
		if i+1 < len(s.epochMarks) && s.epochMarks[i+1].start <= now {
			end = s.epochMarks[i+1].start - 1
			endMark = s.epochMarks[i+1]
		}
		members := s.dir.MembersAt(mark.start)
		st := EpochStat{
			Index:      i,
			StartRound: mark.start,
			EndRound:   end,
			Members:    len(members),
		}

		// Continuity over the chunk deadlines of [start, end].
		lo, hi := s.dueThrough(mark.start-1), s.dueThrough(end)
		if hi > lo {
			total, count := 0.0, 0
			for _, id := range members {
				if id == SourceID {
					continue
				}
				p := s.players[id]
				if p == nil {
					continue
				}
				from := lo
				if jc := s.joinedChunk[id]; jc > from {
					from = jc
				}
				if from >= hi {
					continue
				}
				total += float64(p.DeliveredInRange(from, hi)) / float64(hi-from)
				count++
			}
			if count > 0 {
				st.MeanContinuity = total / float64(count)
			}
		}

		// Bandwidth: traffic delta over the epoch, averaged per client
		// and second.
		clients := len(members) - 1
		seconds := float64(end-mark.start+1) * model.RoundDurationSeconds
		if clients > 0 && seconds > 0 {
			delta := endMark.traffic.Sub(mark.traffic)
			bytes := float64(delta.BytesIn+delta.BytesOut) / 2
			st.MeanBandwidthKbps = bytes * 8 / 1000 / seconds / float64(clients)
		}

		// Bandwidth-plane activity over the same window.
		st.Deferred = endMark.deferred - mark.deferred
		st.Expired = endMark.expired - mark.expired
		st.QueueDepth = endMark.queueDepth
		st.QueueDepthByNode = endMark.queueByNode

		// Verdicts raised while the epoch was current, and the
		// punishment loop's activity in the same window.
		st.Verdicts = countInWindow(verdictRounds, mark.start, end)
		for _, ev := range s.evictions {
			if ev.Round >= mark.start && ev.Round <= end {
				st.Convictions++
				if ev.Err == "" {
					st.Evictions++
				}
			}
		}
		for _, rj := range s.rejoinRejections {
			if rj.Round >= mark.start && rj.Round <= end {
				st.RejoinRejections++
			}
		}
		out = append(out, st)
	}
	return out
}

// verdictRounds returns the rounds of the registry's deduplicated facts.
func (s *Session) verdictRounds() []model.Round {
	return s.registry.Rounds()
}

// ContinuityInWindow returns one node's delivery ratio for the chunks
// whose playout deadline fell within rounds [from, to] — how the stream
// looked to that viewer during that window (a partition shows as a dip
// here, and the post-heal window shows the recovery).
func (s *Session) ContinuityInWindow(id model.NodeID, from, to model.Round) float64 {
	p := s.players[id]
	if p == nil || to < from {
		return 0
	}
	lo, hi := s.dueThrough(from-1), s.dueThrough(to)
	if jc := s.joinedChunk[id]; jc > lo {
		lo = jc
	}
	if hi <= lo {
		return 0
	}
	return float64(p.DeliveredInRange(lo, hi)) / float64(hi-lo)
}

// VerdictsAgainst counts, per accused node, the deduplicated verdicts
// raised in rounds [from, to] across all protocols — the windowed form of
// ConvictedNodes used to attribute convictions to scenario phases.
func (s *Session) VerdictsAgainst(from, to model.Round) map[model.NodeID]int {
	return s.registry.CountsInWindow(from, to)
}

// sortedIDs returns the map's keys in ascending order (deterministic
// iteration for reports).
func sortedIDs[V any](m map[model.NodeID]V) []model.NodeID {
	out := make([]model.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
