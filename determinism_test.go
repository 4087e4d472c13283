package pag

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// The determinism harness: a run is a pure function of its seeds and its
// configuration. Every row of the table names a run that must reproduce
// its reference run — the same scenario and protocols at workers 0 with
// the flyweight on — byte for byte: the stripped report JSON, Digest(), the
// recorded report_digest and the deterministic obs snapshot. Neither the
// worker count, the flyweight representation nor the transport may change
// an observable: a loopback-socket row compares against the MemNet run,
// scripted loss included, since the fault plane decides loss by the
// message, not by the order in which a transport admits it.

// detRow is one run of the harness.
type detRow struct {
	scenario    string
	protocol    Protocol // 0: both protocols in one report
	tcp         bool     // over loopback TCP
	lossy       bool     // 5 % scripted loss from round 3
	paper       bool     // 512-bit hash and a stream whose buffermaps split
	workers     int
	noFlyweight bool
	short       bool // part of the -short subset the race job runs
}

func (r detRow) String() string {
	s := r.scenario
	if r.tcp {
		s += "/tcp/" + r.protocol.String()
	}
	if r.lossy {
		s += "/lossy"
	}
	if r.paper {
		s += "/512-bit"
	}
	if r.noFlyweight {
		s += "/no-flyweight"
	}
	return fmt.Sprintf("%s/workers=%d", s, r.workers)
}

// The harness's tables. engineRows: every canned scenario (capacity-cliff
// and its queued caps included; the pressured-queue case with caps that
// bite is bandwidth_cliff_test.go's) at 1, 4 and 16 workers. flyweightRows:
// the flyweight ablated on steady-churn, which exercises the interner and
// pools under joins/leaves, and rejoin-attack, which drives the accusation
// path whose monitor state allocates lazily. flyweightTCPRows: the
// ablation over TCP for PAG and AcTinG, whose stored updates would
// otherwise alias the socket's receive arenas.
func engineRows() []detRow {
	var rows []detRow
	for _, name := range scenario.Names() {
		for _, w := range []int{1, 4, 16} {
			rows = append(rows, detRow{scenario: name, workers: w,
				short: w == 4 && (name == "steady-churn" || name == "transient-partition")})
		}
	}
	return rows
}

func flyweightRows() []detRow {
	var rows []detRow
	for _, name := range []string{"steady-churn", "rejoin-attack"} {
		for _, w := range []int{0, 1, 4, 16} {
			rows = append(rows, detRow{scenario: name, workers: w, noFlyweight: true,
				short: name == "steady-churn" && w%4 == 0})
		}
	}
	return rows
}

// paperRows: PAG at the paper's 512-bit width, inline and on the sharded
// engine.
func paperRows() []detRow {
	var rows []detRow
	for _, w := range []int{0, 1, 4} {
		rows = append(rows, detRow{scenario: "steady-churn", protocol: ProtocolPAG, paper: true, workers: w})
	}
	return rows
}

func flyweightTCPRows() []detRow {
	var rows []detRow
	for _, p := range []Protocol{ProtocolPAG, ProtocolAcTinG} {
		rows = append(rows, detRow{scenario: "steady-churn", protocol: p, tcp: true, noFlyweight: true})
	}
	return rows
}

// lossyTCPRows: every protocol over loopback TCP under scripted loss, on
// a churning roster and across a partition, each against the MemNet run
// of the same script — every lost attempt the plane retransmits must be
// the one MemNet's canonical merge retransmits.
func lossyTCPRows() []detRow {
	var rows []detRow
	for _, name := range []string{"steady-churn", "transient-partition"} {
		for _, p := range []Protocol{ProtocolPAG, ProtocolAcTinG} {
			rows = append(rows, detRow{scenario: name, protocol: p, tcp: true, lossy: true, short: true})
		}
	}
	return rows
}

// detRun is what the harness compares of one run.
type detRun struct {
	report        ScenarioReport
	json          []byte // the report without its engine metadata
	obs           string // the deterministic obs snapshot
	retransmitted float64
}

// strippedJSON renders a report without its engine metadata — the
// deterministic portion Digest() covers.
func strippedJSON(r ScenarioReport) []byte {
	r.Engine = nil
	return r.JSON()
}

// runDeterminism runs one row on 10 nodes with an observability registry
// attached: instrumentation on is the harder determinism case, since the
// engine, fault plane, membership, judicial registry and nodes all count
// events while the report is produced.
func runDeterminism(t *testing.T, r detRow) detRun {
	t.Helper()
	const nodes = 10
	sc, err := scenario.ByName(r.scenario, nodes, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 7
	if r.lossy {
		sc.Events = append(sc.Events, scenario.Event{Round: 3, Action: scenario.ActionSetLoss, Rate: 0.05})
	}
	cfg := SessionConfig{Nodes: nodes, StreamKbps: 2, UpdateBytes: 64, ModulusBits: 128, Seed: 7}
	if r.tcp {
		cfg = tcpSessionConfig(nodes)
	}
	if r.paper {
		cfg.StreamKbps, cfg.ModulusBits = 4, 512
	}
	cfg.Workers, cfg.noIntern, cfg.Obs = r.workers, r.noFlyweight, obs.NewRegistry()
	var ps []Protocol
	if r.protocol != 0 {
		ps = []Protocol{r.protocol}
	}
	rep, err := RunScenarioReport(cfg, sc, ps, 1)
	if err != nil {
		t.Fatalf("%v: %v", r, err)
	}
	if rep.Engine == nil || rep.Engine.Workers != max(r.workers, 1) {
		t.Fatalf("%v: engine metadata %+v", r, rep.Engine)
	}
	snap := cfg.Obs.Snapshot()
	return detRun{report: rep, json: strippedJSON(rep), obs: snap.DeterministicText(),
		retransmitted: snap.Total("pag_net_retransmitted_total")}
}

func TestEngineEquivalenceAllScenarios(t *testing.T) { checkDeterminism(t, engineRows()) }
func TestFlyweightAblationEquivalence(t *testing.T)  { checkDeterminism(t, flyweightRows()) }
func TestFlyweightAblationEquivalenceTCP(t *testing.T) {
	checkDeterminism(t, flyweightTCPRows())
}
func TestTCPLossyRunsMatchMemNet(t *testing.T) { checkDeterminism(t, lossyTCPRows()) }

// TestPaperWidthEquivalence runs paperRows with at least two Ps, the
// fewest at which a batch splits.
func TestPaperWidthEquivalence(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	checkDeterminism(t, paperRows())
}

// checkDeterminism runs each row (the -short subset under -short) and
// compares it with its reference run.
func checkDeterminism(t *testing.T, rows []detRow) {
	refs := map[detRow]detRun{}
	for _, row := range rows {
		if testing.Short() && !row.short {
			continue
		}
		t.Run(row.String(), func(t *testing.T) {
			key := detRow{scenario: row.scenario, protocol: row.protocol, lossy: row.lossy, paper: row.paper}
			want, ok := refs[key]
			if !ok {
				want = runDeterminism(t, key)
				refs[key] = want
			}
			if row.lossy && want.retransmitted == 0 {
				t.Fatal("the reference run retransmitted nothing; the lossy row would be vacuous")
			}
			got := runDeterminism(t, row)
			if got.report.Digest() != want.report.Digest() {
				t.Errorf("digest %s, want %s", got.report.Digest(), want.report.Digest())
			}
			if !bytes.Equal(got.json, want.json) {
				t.Errorf("report differs from the reference run\nwant: %.400s\ngot:  %.400s", want.json, got.json)
			}
			if got.report.Engine.ReportDigest != want.report.Engine.ReportDigest {
				t.Error("recorded report_digest differs")
			}
			if got.obs != want.obs {
				t.Errorf("deterministic obs snapshot differs\nwant:\n%s\ngot:\n%s", want.obs, got.obs)
			}
		})
	}
}

// TestDigestExcludesEngineMetadata: mutating the Engine block must not
// move the digest, and the digest must match the recorded one.
func TestDigestExcludesEngineMetadata(t *testing.T) {
	r := runDeterminism(t, detRow{scenario: "steady-churn"}).report
	d := r.Digest()
	if r.Engine.ReportDigest != d {
		t.Fatalf("recorded digest %s != computed %s", r.Engine.ReportDigest, d)
	}
	r.Engine = &EngineInfo{Workers: 512, ReportDigest: "bogus"}
	if r.Digest() != d {
		t.Fatal("digest depends on engine metadata")
	}
	// And the JSON with metadata present must still carry it.
	if !bytes.Contains(r.JSON(), []byte(`"workers": 512`)) {
		t.Fatal("engine metadata missing from JSON")
	}
}

// TestSessionEngineSelection: Workers maps onto the engine as documented —
// 0 and 1 step inline, a negative count means GOMAXPROCS.
func TestSessionEngineSelection(t *testing.T) {
	for _, tc := range []struct{ workers, want int }{{0, 1}, {1, 1}, {3, 3}, {-1, runtime.GOMAXPROCS(0)}} {
		s, err := NewSession(SessionConfig{
			Nodes: 8, StreamKbps: 2, UpdateBytes: 64, ModulusBits: 128, Seed: 1,
			Workers: tc.workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.EngineInfo().Workers; got != tc.want {
			t.Fatalf("Workers=%d: effective workers %d, want %d", tc.workers, got, tc.want)
		}
		s.Run(3)
		if got := s.Round(); got != 3 {
			t.Fatalf("Workers=%d: round %v after Run(3)", tc.workers, got)
		}
	}
}

// TestParallelSessionBandwidthMatchesSerial: the headline Fig-7 metric is
// identical bit-for-bit inline and sharded on a plain (scenario-free) run.
func TestParallelSessionBandwidthMatchesSerial(t *testing.T) {
	run := func(workers int) (float64, float64) {
		s, err := NewSession(SessionConfig{
			Nodes: 12, StreamKbps: 4, UpdateBytes: 64, ModulusBits: 128, Seed: 3,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(4)
		s.StartMeasuring()
		s.Run(8)
		return s.BandwidthSample().Mean(), s.MeanContinuity()
	}
	bwInline, contInline := run(0)
	for _, w := range []int{2, 4} {
		bw, cont := run(w)
		if bw != bwInline || cont != contInline {
			t.Errorf("workers=%d: bandwidth/continuity %v/%v, want %v/%v",
				w, bw, cont, bwInline, contInline)
		}
	}
	if bwInline == 0 {
		t.Fatal("no bandwidth measured")
	}
}
