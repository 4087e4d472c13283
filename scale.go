package pag

import (
	"fmt"
	"sort"

	"repro/internal/analytic"
	"repro/internal/lite"
	"repro/internal/model"
	"repro/internal/obs"
)

// This file is the sampled-cohort scaling mode: Fig 9 at sizes where full
// simulation of every node is out of reach on one box. A deterministic
// (seeded rendezvous) cohort runs the complete §V-A/§V-B protocol with
// exact accountability checks — its measured bandwidth, continuity and
// verdicts are real protocol outcomes at the global system's fanout —
// while every off-cohort member is an internal/lite stand-in that
// accounts the analytic traffic model at ~100 bytes of state. Lite nodes
// exchange no messages and share no mutable state with the cohort, so
// the cohort's results are byte-identical at any worker count, with or
// without the lite population attached.

// ScaleConfig parameterises a sampled-cohort session.
type ScaleConfig struct {
	// GlobalNodes is the modelled system size N (the Fig 9 x-axis).
	GlobalNodes int
	// CohortNodes is how many members run the full protocol. The
	// cohort is the rendezvous-lowest CohortNodes ids plus the source.
	CohortNodes int
	// StreamKbps / UpdateBytes / ModulusBits / Seed / Workers as in
	// SessionConfig; the fanout and the forwarding TTL are always the
	// global system's (FanoutFor and ForwardingTTL of GlobalNodes), so
	// per-cohort-node traffic matches a node's share of the global
	// system.
	StreamKbps  int
	UpdateBytes int
	ModulusBits int
	Seed        uint64
	Workers     int
	// DisableFlyweight runs the cohort in the pre-flyweight memory
	// representation (the measurement ablation).
	DisableFlyweight bool
	// Obs / Trace attach observability, as in SessionConfig.
	Obs   *obs.Registry
	Trace *obs.Tracer
}

// ScaleSession wraps a cohort Session plus the lite plane modelling the
// rest of the membership.
type ScaleSession struct {
	*Session
	// Cohort lists the full-fidelity member ids in ascending order.
	Cohort []model.NodeID
	// Lite models the off-cohort population.
	Lite *lite.Plane

	globalN int
}

// CohortIDs returns the deterministic cohort for (globalN, k, seed): the
// source plus the k-1 members with the lowest rendezvous scores, in
// ascending id order. Every process computes the same cohort from the
// same seed — the sampled population is reproducible, not arbitrary.
func CohortIDs(globalN, k int, seed uint64) []model.NodeID {
	if k > globalN {
		k = globalN
	}
	type scored struct {
		id    model.NodeID
		score uint64
	}
	top := make([]scored, 0, k)
	for i := 2; i <= globalN; i++ {
		id := model.NodeID(i)
		c := scored{id: id, score: model.Hash64(seed ^ uint64(id)*0x9E3779B97F4A7C15 ^ 0xC04057)}
		if len(top) == k-1 && (k == 1 || c.score >= top[len(top)-1].score) {
			continue
		}
		pos := len(top)
		if pos < k-1 {
			top = append(top, c)
		} else if pos == 0 {
			continue
		} else {
			pos = k - 2
		}
		for pos > 0 && top[pos-1].score > c.score {
			top[pos] = top[pos-1]
			pos--
		}
		top[pos] = c
	}
	out := make([]model.NodeID, 0, k)
	out = append(out, SourceID)
	for _, c := range top {
		out = append(out, c.id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NewScaleSession assembles a sampled-cohort session: a full Session over
// the cohort ids at the global fanout, plus one lite node per off-cohort
// id registered on the same round engine (so measured rounds/s includes
// the cost of stepping the whole modelled population).
func NewScaleSession(cfg ScaleConfig) (*ScaleSession, error) {
	if cfg.GlobalNodes < 4 {
		return nil, fmt.Errorf("pag: scale mode needs GlobalNodes >= 4, got %d", cfg.GlobalNodes)
	}
	fanout := model.FanoutFor(cfg.GlobalNodes)
	if cfg.CohortNodes < fanout+2 {
		return nil, fmt.Errorf("pag: cohort of %d too small for fanout %d", cfg.CohortNodes, fanout)
	}
	cohort := CohortIDs(cfg.GlobalNodes, cfg.CohortNodes, cfg.Seed)
	s, err := NewSession(SessionConfig{
		MemberIDs:        cohort,
		Fanout:           fanout,
		Monitors:         fanout,
		TTL:              model.ForwardingTTL(cfg.GlobalNodes, fanout),
		StreamKbps:       cfg.StreamKbps,
		UpdateBytes:      cfg.UpdateBytes,
		ModulusBits:      cfg.ModulusBits,
		Seed:             cfg.Seed,
		Workers:          cfg.Workers,
		DisableFlyweight: cfg.DisableFlyweight,
		Obs:              cfg.Obs,
		Trace:            cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	inCohort := make(map[model.NodeID]bool, len(cohort))
	for _, id := range cohort {
		inCohort[id] = true
	}
	plane := lite.New(lite.Config{
		GlobalN:     cfg.GlobalNodes,
		Fanout:      fanout,
		Seed:        cfg.Seed,
		StreamKbps:  s.cfg.StreamKbps,
		UpdateBytes: s.cfg.UpdateBytes,
		TTL:         int(s.cfg.TTL),
		Wire:        analytic.WireFor(s.cfg.ModulusBits),
	})
	for i := 1; i <= cfg.GlobalNodes; i++ {
		id := model.NodeID(i)
		if inCohort[id] {
			continue
		}
		s.engine.Add(plane.Node(id))
	}
	ss := &ScaleSession{Session: s, Cohort: cohort, Lite: plane, globalN: cfg.GlobalNodes}
	return ss, nil
}

// GlobalNodes returns the modelled system size.
func (ss *ScaleSession) GlobalNodes() int { return ss.globalN }

// StartMeasuring opens the steady-state window on both planes.
func (ss *ScaleSession) StartMeasuring() {
	ss.Session.StartMeasuring()
	ss.Lite.StartMeasuring()
}

// CohortBandwidthKbps returns the cohort's measured per-node bandwidths
// in cohort order — real protocol traffic, the values the scale bench
// fingerprints for worker-count byte-identity.
func (ss *ScaleSession) CohortBandwidthKbps() []float64 {
	out := make([]float64, len(ss.Cohort))
	for i, id := range ss.Cohort {
		out[i] = ss.NodeBandwidthKbps(id)
	}
	return out
}

// CohortMeanKbps returns the measured cohort mean, excluding the source
// (its upload profile is not a client's).
func (ss *ScaleSession) CohortMeanKbps() float64 {
	var sum float64
	n := 0
	for _, id := range ss.Cohort {
		if id == SourceID {
			continue
		}
		sum += ss.NodeBandwidthKbps(id)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// AnalyticKbps returns the closed-form per-node prediction for the
// modelled global size — the value BENCH_scale.json records alongside
// each measurement.
func (ss *ScaleSession) AnalyticKbps() float64 {
	return analytic.PAGPerNodeKbps(analytic.Params{
		PayloadKbps: ss.cfg.StreamKbps,
		UpdateBytes: ss.cfg.UpdateBytes,
		N:           ss.globalN,
		Fanout:      ss.cfg.Fanout,
		Monitors:    ss.cfg.Monitors,
		TTLRounds:   int(ss.cfg.TTL),
		Wire:        analytic.WireFor(ss.cfg.ModulusBits),
	})
}
