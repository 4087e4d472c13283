package trace

import (
	"strings"
	"testing"

	"repro/internal/model"
)

func journalFrom(t *testing.T, jsonl string) *Journal {
	t.Helper()
	evs, err := Parse(strings.NewReader(jsonl), 0)
	if err != nil {
		t.Fatal(err)
	}
	return &Journal{Events: evs}
}

func TestParseRejectsMalformedLines(t *testing.T) {
	if _, err := Parse(strings.NewReader("{\"event\":\"a\"}\n{broken\n"), 0); err == nil {
		t.Fatal("malformed line accepted")
	}
	if _, err := Parse(strings.NewReader("{\"seq\":1,\"name\":\"no-event-key\"}\n"), 0); err == nil {
		t.Fatal("line without an event field accepted")
	}
}

func TestParseStripsEnvelopeKeys(t *testing.T) {
	evs, err := Parse(strings.NewReader(
		`{"seq":3,"ts_ns":99,"event":"exchange","xid":"r1:2>3","span":"open"}`+"\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := evs[0]
	if e.Seq != 3 || e.TsNs != 99 || e.Name != "exchange" {
		t.Fatalf("envelope %d/%d/%q", e.Seq, e.TsNs, e.Name)
	}
	for _, k := range []string{"seq", "ts_ns", "event"} {
		if _, ok := e.Fields[k]; ok {
			t.Fatalf("envelope key %q left in Fields", k)
		}
	}
	if e.XID() != "r1:2>3" || e.Str("span") != "open" {
		t.Fatalf("fields %v", e.Fields)
	}
}

func TestExchangeReassemblyAndWellFormedness(t *testing.T) {
	xid := model.ExchangeID(4, 2, 9)
	j := journalFrom(t, strings.Join([]string{
		`{"event":"exchange","xid":"` + xid + `","span":"open"}`,
		`{"event":"serve","xid":"` + xid + `"}`,
		`{"event":"exchange","xid":"` + xid + `","span":"close","outcome":"acked"}`,
		`{"event":"accusation","xid":"r4:7>8"}`, // dangling: span never opened
	}, "\n")+"\n")

	xs := j.Exchanges()
	if len(xs) != 1 {
		t.Fatalf("%d exchanges, want 1 (dangling xids are not spans)", len(xs))
	}
	x := xs[0]
	if err := x.WellFormed(); err != nil {
		t.Fatal(err)
	}
	if x.Round != 4 || x.From != 2 || x.To != 9 || x.Outcome != "acked" || len(x.Events) != 3 {
		t.Fatalf("reassembled %+v", x)
	}
	if d := j.Dangling(); len(d) != 1 || d[0] != "r4:7>8" {
		t.Fatalf("dangling %v", d)
	}
}

func TestWellFormedRejections(t *testing.T) {
	for name, jsonl := range map[string]string{
		"no close": `{"event":"exchange","xid":"r1:2>3","span":"open"}`,
		"double open": `{"event":"exchange","xid":"r1:2>3","span":"open"}` + "\n" +
			`{"event":"exchange","xid":"r1:2>3","span":"open"}` + "\n" +
			`{"event":"exchange","xid":"r1:2>3","span":"close","outcome":"acked"}`,
		"bad outcome": `{"event":"exchange","xid":"r1:2>3","span":"open"}` + "\n" +
			`{"event":"exchange","xid":"r1:2>3","span":"close","outcome":"maybe"}`,
		"bad id": `{"event":"exchange","xid":"bogus","span":"open"}` + "\n" +
			`{"event":"exchange","xid":"bogus","span":"close","outcome":"acked"}`,
	} {
		j := journalFrom(t, jsonl+"\n")
		xs := j.Exchanges()
		if len(xs) != 1 {
			t.Fatalf("%s: %d exchanges", name, len(xs))
		}
		if err := xs[0].WellFormed(); err == nil {
			t.Errorf("%s: accepted as well-formed", name)
		}
	}
}

func TestLatencyNeedsBothStamps(t *testing.T) {
	j := journalFrom(t,
		`{"event":"exchange","ts_ns":100,"xid":"r1:2>3","span":"open"}`+"\n"+
			`{"event":"exchange","ts_ns":350,"xid":"r1:2>3","span":"close","outcome":"acked"}`+"\n"+
			`{"event":"exchange","xid":"r1:4>5","span":"open"}`+"\n"+
			`{"event":"exchange","xid":"r1:4>5","span":"close","outcome":"acked"}`+"\n")
	xs := j.Exchanges()
	if got := xs[0].Latency(); got != 250 {
		t.Fatalf("latency %d, want 250", got)
	}
	if got := xs[1].Latency(); got != 0 {
		t.Fatalf("clockless latency %d, want 0", got)
	}
}

func TestCanonicalLinesStripSchedulingKeys(t *testing.T) {
	// The two journals differ only in seq, ts_ns and emission order —
	// the scheduling-dependent class.
	a := journalFrom(t,
		`{"seq":1,"ts_ns":10,"event":"verdict","kind":"NoForward","round":3,"xid":"r3:5>6"}`+"\n"+
			`{"seq":2,"ts_ns":20,"event":"round_end","round":3}`+"\n")
	b := journalFrom(t,
		`{"seq":7,"event":"round_end","round":3}`+"\n"+
			`{"seq":9,"ts_ns":999,"event":"verdict","round":3,"kind":"NoForward","xid":"r3:5>6"}`+"\n")
	la, lb := CanonicalLines(a.Events), CanonicalLines(b.Events)
	if len(la) != 2 || len(la) != len(lb) {
		t.Fatalf("lines %v / %v", la, lb)
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("canonical divergence on scheduling-class-only changes:\n%s\n%s", la[i], lb[i])
		}
	}
	// An xid is content, on a span event and on a verdict alike.
	spans := journalFrom(t, `{"event":"exchange","xid":"r1:2>3","span":"open"}`+"\n")
	if !strings.Contains(CanonicalLines(spans.Events)[0], `"xid"`) {
		t.Fatal("exchange xid stripped from canonical form")
	}
	if !strings.Contains(CanonicalLines(a.Events)[1], `"xid"`) {
		t.Fatal("verdict xid stripped from canonical form")
	}
}

func TestReplayRejectsMergedAndScriptlessJournals(t *testing.T) {
	merged := &Journal{Events: []Event{{Name: "run_config", Fields: map[string]any{}, Source: 1}}}
	if _, err := merged.Replay(); err == nil {
		t.Fatal("merged (multi-source) journal accepted for replay")
	}
	noRun := journalFrom(t, `{"event":"round_end","round":1}`+"\n")
	if _, err := noRun.Replay(); err == nil {
		t.Fatal("journal without run_config accepted for replay")
	}
	orphan := journalFrom(t, `{"event":"scenario_event","ev":{"round":1,"action":"leave","node":3}}`+"\n")
	if _, err := orphan.Replay(); err == nil {
		t.Fatal("scenario_event before run_config accepted")
	}
}

func TestStatsTimelineAndWindowRate(t *testing.T) {
	// Two rounds, all acked in round 1, half accused in round 2: the
	// trailing playout window blends them.
	j := journalFrom(t, strings.Join([]string{
		`{"event":"exchange","xid":"r1:2>3","span":"open"}`,
		`{"event":"exchange","xid":"r1:2>3","span":"close","outcome":"acked"}`,
		`{"event":"exchange","xid":"r1:3>4","span":"open"}`,
		`{"event":"exchange","xid":"r1:3>4","span":"close","outcome":"acked"}`,
		`{"event":"exchange","xid":"r2:2>3","span":"open"}`,
		`{"event":"exchange","xid":"r2:2>3","span":"close","outcome":"acked"}`,
		`{"event":"exchange","xid":"r2:3>4","span":"open"}`,
		`{"event":"exchange","xid":"r2:3>4","span":"close","outcome":"accused"}`,
		`{"event":"round_end","round":1}`,
		`{"event":"round_end","round":2}`,
	}, "\n")+"\n")
	st := j.ComputeStats()
	if st.Rounds != 2 || st.Exchanges != 4 || len(st.Malformed) != 0 {
		t.Fatalf("rounds=%d exchanges=%d malformed=%v", st.Rounds, st.Exchanges, st.Malformed)
	}
	if st.Outcomes["acked"] != 3 || st.Outcomes["accused"] != 1 {
		t.Fatalf("outcomes %v", st.Outcomes)
	}
	if len(st.Timeline) != 2 {
		t.Fatalf("timeline %v", st.Timeline)
	}
	r2 := st.Timeline[1]
	if r2.AckRate != 0.5 {
		t.Fatalf("round-2 ack rate %v", r2.AckRate)
	}
	if r2.WindowRate != 0.75 {
		t.Fatalf("round-2 playout-window rate %v, want 0.75 (3 of 4 across the window)", r2.WindowRate)
	}
}

func TestBlameChainOrdering(t *testing.T) {
	j := journalFrom(t, strings.Join([]string{
		`{"event":"verdict","round":5,"accused":16,"accuser":3,"kind":"NoForward","xid":"r5:16>3"}`,
		`{"event":"verdict","round":4,"accused":16,"accuser":2,"kind":"MonitorSilent"}`,
		`{"event":"verdict","round":5,"accused":9,"accuser":3,"kind":"NoForward"}`,
		`{"event":"judgment","round":6,"node":16,"verdicts":2,"quarantine_until":20}`,
		`{"event":"membership_eviction","round":6,"node":16,"quarantine_until":20}`,
		`{"event":"membership_quarantine_rejection","round":9,"node":16,"until":20}`,
	}, "\n")+"\n")
	b := j.BlameChain(16)
	if len(b.Verdicts) != 2 {
		t.Fatalf("verdicts %v", b.Verdicts)
	}
	if b.Verdicts[0].Round != 4 || b.Verdicts[1].Round != 5 {
		t.Fatalf("verdicts out of round order: %+v", b.Verdicts)
	}
	if b.Verdicts[1].XID != "r5:16>3" {
		t.Fatalf("verdict xid %q", b.Verdicts[1].XID)
	}
	if len(b.Judgments) != 1 || !b.Judgments[0].Evicted {
		t.Fatalf("judgments %+v", b.Judgments)
	}
	if len(b.Rejections) != 1 || b.Rejections[0].Round != 9 {
		t.Fatalf("rejections %+v", b.Rejections)
	}
}
