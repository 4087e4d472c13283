package trace

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/scenario"
)

// ReplaySpec is everything a journal records about how to reproduce its
// run: the reconstructed scenario (the original script with every
// churn-generated or auto-resolved event pinned to its resolved target,
// and the generator spec dropped) plus the session knobs from the
// run_config records. Re-running it produces a report whose Digest()
// equals the recorded one — the verification `pag-trace replay -verify`
// performs.
type ReplaySpec struct {
	Scenario    scenario.Scenario `json:"scenario"`
	Protocols   []string          `json:"protocols"`
	Nodes       int               `json:"nodes"`
	Seed        uint64            `json:"seed"`
	StreamKbps  int               `json:"stream_kbps"`
	ModulusBits int               `json:"modulus_bits"`
	Threshold   int               `json:"threshold"`
	Workers     int               `json:"workers"`
	Transport   string            `json:"transport"`
	// Digest is the recorded report digest the replay must reproduce
	// ("" when the journal ended before the report was written).
	Digest string `json:"report_digest,omitempty"`
}

// decodeField round-trips one event field (decoded as map[string]any)
// into a typed struct.
func decodeField(v any, into any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, into)
}

// Replay reconstructs the run's ReplaySpec from the journal. The journal
// must come from one process (one pag-scenario invocation): the
// scenario_event stream is segmented by the run_config record opening
// each protocol's run, and replay requires every protocol segment to have
// resolved the timeline identically — true whenever resolution does not
// depend on protocol-divergent membership (explicit events always;
// auto-picks whenever the protocols evicted identically). Divergent
// segments are an error, not a silent guess.
func (j *Journal) Replay() (*ReplaySpec, error) {
	spec := &ReplaySpec{}
	var segments [][]scenario.Event
	var current []scenario.Event
	inRun := false
	for _, e := range j.Events {
		if e.Source != 0 {
			return nil, fmt.Errorf("trace: replay needs a single-process journal (merged journals interleave run segments)")
		}
		switch e.Name {
		case "run_config":
			if inRun {
				segments = append(segments, current)
				current = nil
			}
			inRun = true
			if len(spec.Protocols) == 0 {
				if err := decodeField(e.Fields["scenario"], &spec.Scenario); err != nil {
					return nil, fmt.Errorf("trace: run_config scenario: %w", err)
				}
				spec.Nodes = int(e.Num("nodes"))
				spec.Seed = e.Num("seed")
				spec.StreamKbps = int(e.Num("stream_kbps"))
				spec.ModulusBits = int(e.Num("modulus_bits"))
				spec.Threshold = int(e.Num("threshold"))
				spec.Workers = int(e.Num("workers"))
				spec.Transport = e.Str("transport")
			}
			spec.Protocols = append(spec.Protocols, e.Str("protocol"))
		case "scenario_event":
			if !inRun {
				return nil, fmt.Errorf("trace: scenario_event before any run_config (journal not from pag-scenario?)")
			}
			var ev scenario.Event
			if err := decodeField(e.Fields["ev"], &ev); err != nil {
				return nil, fmt.Errorf("trace: scenario_event: %w", err)
			}
			current = append(current, ev)
		case "report_digest":
			spec.Digest = e.Str("digest")
		}
	}
	if !inRun {
		return nil, fmt.Errorf("trace: no run_config record (journal not from pag-scenario?)")
	}
	segments = append(segments, current)

	for i := 1; i < len(segments); i++ {
		if !eventsEqual(segments[0], segments[i]) {
			return nil, fmt.Errorf("trace: protocol runs %s and %s resolved the timeline differently — replay cannot pin one event list for all protocols",
				spec.Protocols[0], spec.Protocols[i])
		}
	}

	// The replay script: the original scenario with the resolved events
	// pinned and the generators dropped — what actually happened, as a
	// script. Seed and eviction policy carry over (the fault plane and
	// the punishment loop still need them); Churn must go, or the replay
	// would fire the generated events twice.
	spec.Scenario.Name += "-replay"
	spec.Scenario.Description = "trace→scenario replay of " + spec.Scenario.Name[:len(spec.Scenario.Name)-len("-replay")]
	spec.Scenario.Events = segments[0]
	spec.Scenario.Churn = nil
	if err := spec.Scenario.Validate(); err != nil {
		return nil, fmt.Errorf("trace: reconstructed scenario invalid: %w", err)
	}
	return spec, nil
}

func eventsEqual(a, b []scenario.Event) bool {
	if len(a) != len(b) {
		return false
	}
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}

// JSON renders the spec deterministically.
func (s *ReplaySpec) JSON() []byte {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("trace: marshalling replay spec: %v", err))
	}
	return append(out, '\n')
}
