// Package trace is the offline analyzer over the structured round-event
// journals obs.Tracer writes (JSONL, one object per line): it reassembles
// the §V-A exchange spans scattered across a journal — or across several
// journals from a multi-process run, merged by exchange id — checks their
// well-formedness, aggregates latency and outcome distributions, walks
// accusation→verdict→eviction blame chains, and reconstructs a scenario
// script that replays the run (cmd/pag-trace is the CLI over it).
//
// Correlation is by exchange id (model.ExchangeID), never by sequence
// number: seq orders one tracer's writes, but spans survive worker-thread
// interleaving and journal merging only because every event of an
// exchange carries the same xid.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/model"
)

// Event is one decoded journal line.
type Event struct {
	// Seq is the tracer-local sequence number; TsNs the wall-clock stamp
	// (0 when the run traced without a clock — deterministic journals).
	Seq  uint64
	TsNs int64
	// Name is the event type ("exchange", "verdict", "scenario_event", …).
	Name string
	// Fields holds every other key of the line, undecoded beyond JSON.
	Fields map[string]any
	// Source indexes the journal file the event came from (merged
	// multi-process analyses keep provenance).
	Source int
}

// Str returns a string field ("" when absent or not a string).
func (e Event) Str(key string) string {
	s, _ := e.Fields[key].(string)
	return s
}

// Num returns a numeric field as uint64 (0 when absent). JSON numbers
// decode as float64; trace fields are counts and ids, all exactly
// representable.
func (e Event) Num(key string) uint64 {
	f, _ := e.Fields[key].(float64)
	return uint64(f)
}

// XID returns the event's exchange-correlation id ("" for events outside
// any span).
func (e Event) XID() string { return e.Str("xid") }

// Journal is a parsed journal (or several, merged).
type Journal struct {
	Events []Event
}

// Parse decodes one JSONL stream. Blank lines are skipped; a malformed
// line is an error (journals are machine-written — damage means
// truncation worth surfacing, not noise worth tolerating).
func Parse(r io.Reader, source int) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		ev := Event{Fields: m, Source: source}
		if f, ok := m["seq"].(float64); ok {
			ev.Seq = uint64(f)
			delete(m, "seq")
		}
		if f, ok := m["ts_ns"].(float64); ok {
			ev.TsNs = int64(f)
			delete(m, "ts_ns")
		}
		if s, ok := m["event"].(string); ok {
			ev.Name = s
			delete(m, "event")
		} else {
			return nil, fmt.Errorf("trace: line %d: no event field", line)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scanning: %w", err)
	}
	// The tracer buffers per shard, so a parallel run's file order
	// interleaves shard drains; seq restores emission order. Stable so
	// seq-less hand-written fixtures keep their file order.
	sort.SliceStable(out, func(i, k int) bool { return out[i].Seq < out[k].Seq })
	return out, nil
}

// Load parses one or more journal files into a merged Journal. Events
// keep file order within each source; cross-source correlation is by
// exchange id.
func Load(paths ...string) (*Journal, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("trace: no journal files")
	}
	j := &Journal{}
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		evs, perr := Parse(f, i)
		f.Close()
		if perr != nil {
			return nil, fmt.Errorf("trace: %s: %w", p, perr)
		}
		j.Events = append(j.Events, evs...)
	}
	return j, nil
}

// ByName returns the events of one type, in journal order.
func (j *Journal) ByName(name string) []Event {
	var out []Event
	for _, e := range j.Events {
		if e.Name == name {
			out = append(out, e)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Exchange spans
// ---------------------------------------------------------------------------

// Exchange is one reassembled §V-A exchange span: the open/close pair the
// sender emitted plus every point event — receiver side, monitoring path,
// accusation flow, judicial facts — that carried its id.
type Exchange struct {
	XID   string
	Round model.Round
	From  model.NodeID
	To    model.NodeID
	// Opens / Closes count span-open and span-close events (exactly one
	// of each in a well-formed span; merging the same journal twice, or a
	// truncated journal, shows up here).
	Opens  int
	Closes int
	// Outcome is the terminal outcome of the closing event.
	Outcome string
	// OpenTs / CloseTs are the wall-clock stamps of the open and close
	// events (0 without a clock); their difference is the exchange's
	// latency.
	OpenTs  int64
	CloseTs int64
	// Events is every event carrying the xid, in journal order.
	Events []Event
}

// Latency returns the open→close wall-clock nanoseconds (0 when the
// journal has no clock or the span is incomplete).
func (x *Exchange) Latency() int64 {
	if x.OpenTs == 0 || x.CloseTs == 0 {
		return 0
	}
	return x.CloseTs - x.OpenTs
}

// terminalOutcomes is the closed vocabulary of span outcomes.
var terminalOutcomes = map[string]bool{
	"acked": true, "accused": true, "skipped": true, "unresolved": true,
}

// WellFormed checks the span invariant: exactly one open, exactly one
// close, a terminal outcome from the closed vocabulary, and a parseable
// exchange id consistent with the span's round/from/to fields.
func (x *Exchange) WellFormed() error {
	if x.Opens != 1 {
		return fmt.Errorf("exchange %s: %d span-open events (want 1)", x.XID, x.Opens)
	}
	if x.Closes != 1 {
		return fmt.Errorf("exchange %s: %d span-close events (want 1)", x.XID, x.Closes)
	}
	if !terminalOutcomes[x.Outcome] {
		return fmt.Errorf("exchange %s: outcome %q not terminal", x.XID, x.Outcome)
	}
	if _, _, _, ok := model.ParseExchangeID(x.XID); !ok {
		return fmt.Errorf("exchange %s: unparseable id", x.XID)
	}
	return nil
}

// Exchanges reassembles the journal's spans, sorted by (round, from, to).
// Every event carrying an xid lands in its exchange; xids referenced by
// point events but never opened as spans are returned by Dangling.
func (j *Journal) Exchanges() []*Exchange {
	byXID := j.exchangeIndex()
	out := make([]*Exchange, 0, len(byXID))
	for _, x := range byXID {
		if x.Opens > 0 || x.Closes > 0 {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Round != out[k].Round {
			return out[i].Round < out[k].Round
		}
		if out[i].From != out[k].From {
			return out[i].From < out[k].From
		}
		return out[i].To < out[k].To
	})
	return out
}

// Dangling returns the xids point events referenced without any span
// open/close in the journal — legitimate for exchanges a crashed node
// never opened (its monitors still judge its round-r obligations), a red
// flag everywhere else. Sorted.
func (j *Journal) Dangling() []string {
	var out []string
	for xid, x := range j.exchangeIndex() {
		if x.Opens == 0 && x.Closes == 0 {
			out = append(out, xid)
		}
	}
	sort.Strings(out)
	return out
}

func (j *Journal) exchangeIndex() map[string]*Exchange {
	byXID := make(map[string]*Exchange)
	for _, e := range j.Events {
		xid := e.XID()
		if xid == "" {
			continue
		}
		x := byXID[xid]
		if x == nil {
			x = &Exchange{XID: xid}
			x.Round, x.From, x.To, _ = model.ParseExchangeID(xid)
			byXID[xid] = x
		}
		x.Events = append(x.Events, e)
		if e.Name == "exchange" {
			switch e.Str("span") {
			case "open":
				x.Opens++
				x.OpenTs = e.TsNs
			case "close":
				x.Closes++
				x.CloseTs = e.TsNs
				x.Outcome = e.Str("outcome")
			}
		}
	}
	return byXID
}

// ---------------------------------------------------------------------------
// Canonical comparison
// ---------------------------------------------------------------------------

// CanonicalLines renders the journal's events as a sorted multiset of
// JSON lines with the scheduling-dependent parts stripped — the form in
// which two traced runs of the same seed compare equal at any worker
// count (event *content* is deterministic on the in-memory transport;
// emission *order* is worker-schedule dependent). Stripped: seq and
// ts_ns. A verdict's xid stays: it names the first report registered
// under the verdict's dedupe key, and reports register in id order, so
// it repeats per seed (pag.TestVerdictAttributionRepeats).
func CanonicalLines(events []Event) []string {
	out := make([]string, 0, len(events))
	for _, e := range events {
		keys := make([]string, 0, len(e.Fields))
		for k := range e.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		line, _ := json.Marshal(e.Name)
		s := `{"event":` + string(line)
		for _, k := range keys {
			v, err := json.Marshal(e.Fields[k])
			if err != nil {
				v = []byte(`"?"`)
			}
			kq, _ := json.Marshal(k)
			s += "," + string(kq) + ":" + string(v)
		}
		s += "}"
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
