package pag

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// traceScenario runs one canned scenario with a buffer-backed tracer (no
// clock — the deterministic journal class) and returns the parsed journal
// plus the run's report. Workers selects the engine exactly as
// SessionConfig documents it.
func traceScenario(t *testing.T, name string, nodes, workers int) (*trace.Journal, ScenarioReport) {
	t.Helper()
	sc, err := scenario.ByName(name, nodes, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 7
	var buf bytes.Buffer
	cfg := SessionConfig{
		Nodes: nodes, StreamKbps: 2, UpdateBytes: 64, ModulusBits: 128, Seed: 7,
		Workers: workers, Trace: obs.NewTracer(&buf),
	}
	report, err := RunScenarioReport(cfg, sc, nil, 1)
	if err != nil {
		t.Fatalf("%s at workers=%d: %v", name, workers, err)
	}
	if err := cfg.Trace.Err(); err != nil {
		t.Fatalf("%s at workers=%d: tracer latched %v", name, workers, err)
	}
	events, err := trace.Parse(&buf, 0)
	if err != nil {
		t.Fatalf("%s at workers=%d: %v", name, workers, err)
	}
	return &trace.Journal{Events: events}, report
}

// TestTraceSpansWellFormed: every exchange in a traced run — here the
// accountability-heavy rejoin-attack, four workers — has a well-formed
// span (exactly one open, one close, a terminal outcome, a parseable id),
// and the monitoring/accusation path events all carry exchange ids.
func TestTraceSpansWellFormed(t *testing.T) {
	j, _ := traceScenario(t, "rejoin-attack", 12, 4)

	exchanges := j.Exchanges()
	if len(exchanges) == 0 {
		t.Fatal("journal reassembled no exchange spans")
	}
	outcomes := make(map[string]int)
	for _, x := range exchanges {
		if err := x.WellFormed(); err != nil {
			t.Errorf("malformed span: %v", err)
		}
		outcomes[x.Outcome]++
	}
	if outcomes["acked"] == 0 {
		t.Errorf("no acked exchanges among %v", outcomes)
	}
	// rejoin-attack convicts its attacker: the journal must show the
	// monitoring and judicial path riding the same correlation ids. (The
	// attacker is caught by the ack_request/monitor path; direct
	// accusation events need a different fault pattern.)
	for _, name := range []string{"monitor_report", "ack_request", "verdict"} {
		evs := j.ByName(name)
		if len(evs) == 0 {
			t.Errorf("no %s events in a rejoin-attack journal", name)
			continue
		}
		for _, e := range evs {
			if name == "verdict" && e.Str("kind") != "NoForward" {
				continue // only forwarding verdicts reference a specific exchange
			}
			if e.XID() == "" {
				t.Errorf("%s event without an exchange id: %+v", name, e.Fields)
				break
			}
		}
	}
	// Dangling ids are legitimate only for exchanges a crashed initiator
	// never opened; every one must still parse as an exchange id.
	for _, xid := range j.Dangling() {
		if _, _, _, ok := model.ParseExchangeID(xid); !ok {
			t.Errorf("dangling xid %q is not an exchange id", xid)
		}
	}
	// The aggregate view agrees: stats over a healthy journal report no
	// malformed spans and a populated timeline.
	st := j.ComputeStats()
	if len(st.Malformed) != 0 {
		t.Errorf("stats found malformed spans: %v", st.Malformed)
	}
	if st.Exchanges != len(exchanges) || len(st.Timeline) == 0 {
		t.Errorf("stats exchanges=%d timeline=%d, want %d and >0",
			st.Exchanges, len(st.Timeline), len(exchanges))
	}
}

// TestTraceSeqMonotonicUnderParallelEngine: the tracer serializes worker
// threads — journal order carries strictly increasing sequence numbers
// even at 16 workers.
func TestTraceSeqMonotonicUnderParallelEngine(t *testing.T) {
	j, _ := traceScenario(t, "steady-churn", 10, 16)
	if len(j.Events) == 0 {
		t.Fatal("empty journal")
	}
	last := uint64(0)
	for i, e := range j.Events {
		if e.Seq <= last && i > 0 {
			t.Fatalf("event %d: seq %d after %d", i, e.Seq, last)
		}
		last = e.Seq
	}
}

// TestTraceDeterministicAcrossWorkers: the deterministic event class is
// byte-identical — as a canonical multiset, emission order being the only
// scheduling freedom — between workers 0 and workers 1, 4 and 16.
// run_config is the one record that legitimately differs (it states the
// worker count).
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	canonical := func(j *trace.Journal) []string {
		var evs []trace.Event
		for _, e := range j.Events {
			if e.Name != "run_config" {
				evs = append(evs, e)
			}
		}
		return trace.CanonicalLines(evs)
	}
	names := []string{"rejoin-attack", "steady-churn"}
	workerCounts := []int{1, 4, 16}
	if testing.Short() {
		names = names[:1]
		workerCounts = []int{4}
	}
	for _, name := range names {
		serialJ, serialReport := traceScenario(t, name, 10, 0)
		want := canonical(serialJ)
		for _, w := range workerCounts {
			parallelJ, parallelReport := traceScenario(t, name, 10, w)
			got := canonical(parallelJ)
			if len(got) != len(want) {
				t.Errorf("%s at workers=%d: %d canonical events, serial has %d",
					name, w, len(got), len(want))
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s at workers=%d: canonical event %d diverges\nserial:   %s\nparallel: %s",
						name, w, i, want[i], got[i])
					break
				}
			}
			if serialReport.Digest() != parallelReport.Digest() {
				t.Errorf("%s at workers=%d: report digest diverges", name, w)
			}
		}
	}
}

// TestTraceReplayDigest is the trace→scenario acceptance gate on the
// in-memory transport: the journal of a full multi-protocol rejoin-attack
// run reconstructs into a replay script whose re-run report digests
// identically to the original.
func TestTraceReplayDigest(t *testing.T) {
	j, report := traceScenario(t, "rejoin-attack", 12, 4)
	spec, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Digest == "" {
		t.Fatal("journal carries no report_digest record")
	}
	if spec.Digest != report.Digest() {
		t.Fatalf("recorded digest %s != report digest %s", spec.Digest, report.Digest())
	}
	if len(spec.Protocols) != 2 {
		t.Fatalf("protocols %v, want both", spec.Protocols)
	}
	if spec.Scenario.Churn != nil {
		t.Fatal("replay script kept the churn generator; events would fire twice")
	}
	if !strings.HasSuffix(spec.Scenario.Name, "-replay") {
		t.Fatalf("replay scenario name %q", spec.Scenario.Name)
	}

	replayed, err := RunScenarioReport(SessionConfig{
		Nodes:       spec.Nodes,
		StreamKbps:  spec.StreamKbps,
		UpdateBytes: 64,
		ModulusBits: spec.ModulusBits,
		Seed:        spec.Seed,
		Workers:     spec.Workers,
	}, spec.Scenario, protocolsByName(t, spec.Protocols), spec.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	if got := replayed.Digest(); got != spec.Digest {
		t.Fatalf("replay diverged: recorded %s, replayed %s", spec.Digest, got)
	}
}

// TestTraceReplayDigestTCP: the same reconstruction loop with both the
// original and the replay run over real loopback sockets. rejoin-attack
// carries no loss, so the TCP runs land on the same digest in the common
// case — but timing stays outside the socket transport's determinism
// contract (a loaded scheduler can push a message past its stepped
// delivery window), so one transient divergence is retried rather than
// failed.
func TestTraceReplayDigestTCP(t *testing.T) {
	if testing.Short() {
		// The race jobs run -short on loaded boxes, where a descheduled
		// reader goroutine can push a frame past the stepped quiescence
		// window and move the digest; exact-digest TCP comparison needs
		// the full (unraced) run.
		t.Skip("tcp digest stability depends on timing; skipped under -short")
	}
	sc, err := scenario.ByName("rejoin-attack", 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 7
	const attempts = 3
	for attempt := 1; ; attempt++ {
		var buf bytes.Buffer
		cfg := tcpSessionConfig(10)
		cfg.Trace = obs.NewTracer(&buf)
		report, err := RunScenarioReport(cfg, sc, []Protocol{ProtocolPAG}, 1)
		if err != nil {
			t.Fatal(err)
		}
		events, err := trace.Parse(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		j := &trace.Journal{Events: events}
		spec, err := j.Replay()
		if err != nil {
			t.Fatal(err)
		}
		if spec.Transport != "tcp" {
			t.Fatalf("journal recorded transport %q, want tcp", spec.Transport)
		}
		if spec.Digest != report.Digest() {
			t.Fatalf("recorded digest %s != report digest %s", spec.Digest, report.Digest())
		}

		replayCfg := tcpSessionConfig(spec.Nodes)
		replayCfg.StreamKbps = spec.StreamKbps
		replayCfg.ModulusBits = spec.ModulusBits
		replayCfg.Seed = spec.Seed
		replayed, err := RunScenarioReport(replayCfg, spec.Scenario, protocolsByName(t, spec.Protocols), spec.Threshold)
		if err != nil {
			t.Fatal(err)
		}
		got := replayed.Digest()
		if got == spec.Digest {
			return
		}
		if attempt == attempts {
			t.Fatalf("tcp replay diverged on all %d attempts: recorded %s, replayed %s",
				attempts, spec.Digest, got)
		}
		t.Logf("attempt %d: tcp replay diverged (recorded %s, replayed %s); retrying",
			attempt, spec.Digest, got)
	}
}

func protocolsByName(t *testing.T, names []string) []Protocol {
	t.Helper()
	var ps []Protocol
	for _, n := range names {
		p, err := ParseProtocol(n)
		if err != nil {
			t.Fatalf("replay spec: %v", err)
		}
		ps = append(ps, p)
	}
	return ps
}

// TestVerdictAttributionRepeats: when a node raises several reports under
// one dedupe key, the one the registry keeps — named by the verdict
// event's xid — is the same at any worker count and in every run.
func TestVerdictAttributionRepeats(t *testing.T) {
	verdicts := func(j *trace.Journal) []string {
		var out []string
		for _, e := range j.Events {
			if e.Name == "verdict" {
				out = append(out, fmt.Sprintf("r%d %s against n%d by n%d xid=%s",
					e.Num("round"), e.Str("kind"), e.Num("accused"), e.Num("accuser"), e.XID()))
			}
		}
		slices.Sort(out)
		return out
	}
	serial, _ := traceScenario(t, "delayed-coalition", 10, 0)
	want := verdicts(serial)
	if len(want) == 0 {
		t.Fatal("the coalition drew no verdicts")
	}
	parallel, _ := traceScenario(t, "delayed-coalition", 10, 4)
	if got := verdicts(parallel); !slices.Equal(got, want) {
		t.Fatalf("verdict attribution differs between workers 0 and 4:\n%v\n%v", want, got)
	}
}
