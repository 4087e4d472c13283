package pag

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// ScenarioReport is the result of running one scenario under one or more
// protocols — what cmd/pag-scenario emits. All slices are sorted and the
// JSON field order is the struct order, so the same scenario and seed
// produce byte-identical reports.
type ScenarioReport struct {
	Scenario  scenario.Scenario `json:"scenario"`
	Nodes     int               `json:"nodes"`
	Seed      uint64            `json:"seed"`
	Protocols []ProtocolRun     `json:"protocols"`
	// Engine records how the run was executed (worker count, transport)
	// plus the digest of everything else. Like the Scenario block
	// it is excluded from Digest(), so reports taken on different
	// machines or at different worker counts stay byte-comparable: strip
	// Engine, or compare Digest().
	Engine *EngineInfo `json:"engine,omitempty"`
}

// Digest returns the SHA-256 (hex) of the report's measured portion: the
// JSON rendering with the Engine metadata and the Scenario script
// stripped. Two runs of the same scenario and seed have equal digests
// regardless of worker count or host — and a run of a
// *different* script that fires the identical resolved timeline (what
// `pag-trace replay` reconstructs: churn-generated events pinned to their
// resolved targets) digests equally too, which is exactly the equivalence
// replay verification needs. The applied-event journal stays inside the
// digest, so scripts that actually did different things cannot collide.
func (r ScenarioReport) Digest() string {
	r.Engine = nil
	r.Scenario = scenario.Scenario{}
	return fmt.Sprintf("%x", sha256.Sum256(r.JSON()))
}

// ProtocolRun is one protocol's measurements under the scenario.
type ProtocolRun struct {
	Protocol     string `json:"protocol"`
	Rounds       int    `json:"rounds"`
	FinalMembers int    `json:"final_members"`
	// MeanContinuity covers the whole run for the nodes alive at its
	// end (mid-run joiners measured from their join point).
	MeanContinuity float64 `json:"mean_continuity"`
	// MeanBandwidthKbps is the duration-weighted mean of the per-epoch
	// client bandwidths — byte deltas over members actually present, so
	// it stays truthful under churn (a per-node sample would silently
	// drop departed nodes and dilute late joiners over the full window).
	MeanBandwidthKbps float64 `json:"mean_bandwidth_kbps"`
	// MessagesDropped is the fault plane's combined discard counter:
	// scripted loss, partitions, down nodes and queue expiry. Expiry is
	// also broken out below so queue pressure and lossy links stay
	// distinguishable.
	MessagesDropped uint64 `json:"messages_dropped"`
	// MessagesDeferred counts sends the queued link model (upload caps)
	// carried over to a later round instead of dropping — delayed, not
	// lost. MessagesExpired counts the queued messages that out-aged the
	// playout deadline waiting for budget; they are included in
	// MessagesDropped. (Pre-queue reports called the latter cap drops.)
	MessagesDeferred uint64 `json:"messages_deferred"`
	MessagesExpired  uint64 `json:"messages_expired"`
	// Epochs slices the run by membership epoch.
	Epochs []EpochStat `json:"epochs"`
	// Convictions lists nodes with at least the conviction threshold of
	// deduplicated verdicts, ascending by node id.
	Convictions []Conviction `json:"convictions"`
	// Evictions is the punishment loop's judgment log (empty unless the
	// scenario's eviction policy — or SessionConfig.Judicial — is armed).
	Evictions []Eviction `json:"evictions"`
	// RejoinRejections lists the Join attempts bounced by quarantines.
	RejoinRejections []RejoinRejection `json:"rejoin_rejections"`
	// Journal is the applied-event log (what the timeline actually did).
	Journal []scenario.Applied `json:"journal"`
}

// Conviction is one convicted node with its verdict count.
type Conviction struct {
	Node     model.NodeID `json:"node"`
	Verdicts int          `json:"verdicts"`
}

// JSON renders the report deterministically.
func (r ScenarioReport) JSON() []byte {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("pag: marshalling scenario report: %v", err))
	}
	return append(out, '\n')
}

// weightedBandwidth averages the per-epoch client bandwidths weighted by
// epoch duration, so the headline figure and the epoch slices always
// reconcile.
func weightedBandwidth(epochs []EpochStat) float64 {
	var kbpsRounds, rounds float64
	for _, e := range epochs {
		d := float64(e.EndRound - e.StartRound + 1)
		kbpsRounds += e.MeanBandwidthKbps * d
		rounds += d
	}
	if rounds == 0 {
		return 0
	}
	return kbpsRounds / rounds
}

// RunScenarioReport runs the scenario under each listed protocol on an
// otherwise-identical configuration and gathers the comparison report.
// convictionThreshold is the verdict count that counts as a conviction
// (ConvictedNodes); 0 defaults to 1.
func RunScenarioReport(base SessionConfig, sc scenario.Scenario,
	protocols []Protocol, convictionThreshold int) (ScenarioReport, error) {
	if err := sc.Validate(); err != nil {
		return ScenarioReport{}, err
	}
	if len(protocols) == 0 {
		protocols = []Protocol{ProtocolPAG, ProtocolAcTinG, ProtocolRAC}
	}
	if convictionThreshold <= 0 {
		convictionThreshold = 1
	}
	report := ScenarioReport{
		Scenario: sc,
		Nodes:    base.Nodes,
		Seed:     base.Seed,
	}
	for _, p := range protocols {
		cfg := base
		cfg.Protocol = p
		cfg.Scenario = &sc
		s, err := NewSession(cfg)
		if err != nil {
			return ScenarioReport{}, fmt.Errorf("pag: scenario %q under %v: %w", sc.Name, p, err)
		}
		// One run_config record opens each protocol's segment of the trace
		// journal: everything pag-trace needs to re-invoke the run — the
		// full script plus the session knobs that shape the measured
		// results — rides in the journal itself, so a journal file is a
		// self-contained replay artifact.
		if base.Trace.Enabled() {
			info := s.EngineInfo()
			def := s.Config()
			base.Trace.Emit("run_config",
				obs.F("scenario", sc),
				obs.F("protocol", p.String()),
				obs.F("nodes", def.Nodes),
				obs.F("seed", def.Seed),
				obs.F("stream_kbps", def.StreamKbps),
				obs.F("modulus_bits", def.ModulusBits),
				obs.F("threshold", convictionThreshold),
				obs.F("workers", info.Workers),
				obs.F("transport", info.Transport))
		}
		if sc.WarmupRounds > 0 {
			s.Run(sc.WarmupRounds)
		}
		s.StartMeasuring()
		s.Run(sc.Rounds - sc.WarmupRounds)

		epochs := s.EpochStats()
		queue := s.QueueStats()
		run := ProtocolRun{
			Protocol:          p.String(),
			Rounds:            sc.Rounds,
			FinalMembers:      len(s.Members()),
			MeanContinuity:    s.MeanContinuity(),
			MeanBandwidthKbps: weightedBandwidth(epochs),
			MessagesDropped:   s.net.Dropped(),
			MessagesDeferred:  queue.Deferred,
			MessagesExpired:   queue.Expired,
			Epochs:            epochs,
			Convictions:       []Conviction{},
			Evictions:         s.Evictions(),
			RejoinRejections:  s.RejoinRejections(),
			Journal:           s.ScenarioJournal(),
		}
		convicted := s.ConvictedNodes(convictionThreshold)
		for _, id := range sortedIDs(convicted) {
			run.Convictions = append(run.Convictions, Conviction{Node: id, Verdicts: convicted[id]})
		}
		if run.Journal == nil {
			run.Journal = []scenario.Applied{}
		}
		report.Protocols = append(report.Protocols, run)
		if report.Engine == nil {
			info := s.EngineInfo()
			report.Engine = &info
		}
		// A TCP-backed session holds listeners and connections; each
		// protocol runs on a fresh network (NewNetwork is a factory), so
		// the finished one is released here.
		_ = s.Close()
	}
	if report.Engine != nil {
		report.Engine.ReportDigest = report.Digest()
		// The digest closes the journal: `pag-trace replay -verify`
		// compares a re-run's digest against this record.
		base.Trace.Emit("report_digest",
			obs.F("digest", report.Engine.ReportDigest),
			obs.F("scenario", sc.Name))
	}
	base.Trace.Flush()
	return report, nil
}
