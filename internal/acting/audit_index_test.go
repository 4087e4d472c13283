package acting

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/judicial"
	"repro/internal/model"
	"repro/internal/securelog"
	"repro/internal/transport"
	"repro/internal/wire"
)

// raceEnabled is set by race_test.go under the race detector, which
// bypasses sync.Pool, so pooled allocation counts only hold without it.
var raceEnabled bool

// referenceJudge is the audit judgement as it stood before the flat index:
// proposals and served ids in nested maps, each entry's ids materialised.
// TestAuditIndexMatchesReference holds judge to it.
func referenceJudge(n *Node, y model.NodeID, lastRound, r model.Round,
	entries []securelog.Entry, complaints []complaint) {
	decode := func(b []byte) (string, []model.UpdateID, error) {
		var l idList
		rd := wire.NewReader(b)
		l.layout(rd.Codec())
		if err := rd.Done(); err != nil {
			return "", nil, err
		}
		return string(l.Tag), l.IDs, nil
	}
	proposed := make(map[model.Round]map[model.NodeID]bool)
	served := make(map[model.Round]map[model.NodeID]map[model.UpdateID]bool)
	type reqEntry struct {
		round model.Round
		peer  model.NodeID
		ids   []model.UpdateID
	}
	var requestsIn []reqEntry
	for _, e := range entries {
		tag, ids, err := decode(e.Content)
		if err != nil {
			continue
		}
		switch {
		case e.Type == securelog.EntrySend && tag == "PROPOSE":
			if proposed[e.Round] == nil {
				proposed[e.Round] = make(map[model.NodeID]bool)
			}
			proposed[e.Round][e.Peer] = true
		case e.Type == securelog.EntrySend && tag == "DATA":
			if served[e.Round] == nil {
				served[e.Round] = make(map[model.NodeID]map[model.UpdateID]bool)
			}
			if served[e.Round][e.Peer] == nil {
				served[e.Round][e.Peer] = make(map[model.UpdateID]bool)
			}
			for _, id := range ids {
				served[e.Round][e.Peer][id] = true
			}
		case e.Type == securelog.EntryRecv && tag == "REQ":
			requestsIn = append(requestsIn, reqEntry{round: e.Round, peer: e.Peer, ids: ids})
		}
	}
	for rr := lastRound + 1; rr <= r; rr++ {
		for _, succ := range n.cfg.Directory.Successors(y, rr) {
			if !proposed[rr][succ] {
				n.report(judicial.Verdict{Round: r, Kind: VerdictMissingPropose, Accused: y,
					Detail: fmt.Sprintf("no proposal to %v at %v", succ, rr)})
			}
		}
	}
	for _, req := range requestsIn {
		for _, id := range req.ids {
			if !served[req.round][req.peer][id] {
				n.report(judicial.Verdict{Round: r, Kind: VerdictUnservedRequest, Accused: y,
					Detail: fmt.Sprintf("request for %v from %v unanswered at %v",
						id, req.peer, req.round)})
			}
		}
	}
	for _, c := range complaints {
		for _, id := range c.ids {
			if !served[c.round][c.from][id] {
				n.report(judicial.Verdict{Round: r, Kind: VerdictUnservedRequest, Accused: y,
					Detail: fmt.Sprintf("complaint by %v for %v at %v unrefuted",
						c.from, id, c.round)})
			}
		}
	}
}

// idContent encodes a tagged identifier list as logIDs logs it.
func idContent(tag string, ids []model.UpdateID) []byte {
	w := wire.NewWriter()
	(&idList{Tag: []byte(tag), IDs: ids}).layout(w.Codec())
	return w.Finish()
}

// TestAuditIndexMatchesReference: over seeded random log suffixes — tags
// mixed and misspelt, duplicate ids, requests with and without a DATA
// send, proposals to some successors and not others, malformed contents
// and complaints — the flat index raises exactly the verdicts, text and
// order included, that the nested-map judgement did. One scratch serves
// every suffix, as the pool hands one to audits of any size.
func TestAuditIndexMatchesReference(t *testing.T) {
	c := newCluster(t, 16, 0, nil, nil)
	n := c.nodes[2]
	const y = model.NodeID(5)
	rng := rand.New(rand.NewPCG(45, 1))
	ids := func() []model.UpdateID {
		out := make([]model.UpdateID, rng.IntN(5))
		for i := range out {
			out[i] = model.UpdateID{Stream: model.StreamID(rng.IntN(8) / 7), Seq: uint64(rng.IntN(6))}
		}
		return out
	}
	tags := []string{"PROPOSE", "DATA", "REQ", "DATA", "REQ", "PROPOSE ", "", "data"}
	s := new(auditScratch)
	kinds := map[string]int{}
	for trial := range 400 {
		lastRound := model.Round(rng.IntN(6))
		r := lastRound + model.Round(1+rng.IntN(5))
		entries := make([]securelog.Entry, rng.IntN(60))
		for i := range entries {
			round := lastRound + model.Round(rng.IntN(int(r-lastRound)+2))
			if round > 0 && rng.IntN(8) == 0 {
				round--
			}
			peer := model.NodeID(1 + rng.IntN(17))
			if succ := n.cfg.Directory.Successors(y, round); rng.IntN(3) > 0 && len(succ) > 0 {
				peer = succ[rng.IntN(len(succ))]
			}
			content := idContent(tags[rng.IntN(len(tags))], ids())
			switch rng.IntN(12) {
			case 0:
				content = content[:rng.IntN(len(content))]
			case 1:
				content = append(content, byte(rng.IntN(256)))
			}
			entries[i] = securelog.Entry{Seq: uint64(i + 1), Round: round,
				Type: securelog.EntryType(1 + rng.IntN(3)), Peer: peer, Content: content}
		}
		if trial%4 == 0 { // an honest suffix: every proposal, every request served
			entries = entries[:0]
			add := func(round model.Round, t securelog.EntryType, peer model.NodeID, content []byte) {
				entries = append(entries, securelog.Entry{Seq: uint64(len(entries) + 1), Round: round,
					Type: t, Peer: peer, Content: content})
			}
			for rr := lastRound + 1; rr <= r; rr++ {
				for _, succ := range n.cfg.Directory.Successors(y, rr) {
					add(rr, securelog.EntrySend, succ, idContent("PROPOSE", ids()))
					req := ids()
					add(rr, securelog.EntryRecv, succ, idContent("REQ", req))
					add(rr, securelog.EntrySend, succ, idContent("DATA", append(ids(), req...)))
				}
			}
		}
		complaints := make([]complaint, rng.IntN(4)*(trial%4))
		for i := range complaints {
			complaints[i] = complaint{round: lastRound + model.Round(rng.IntN(int(r-lastRound)+1)),
				from: model.NodeID(1 + rng.IntN(17)), ids: ids()}
		}

		c.verdicts = nil
		referenceJudge(n, y, lastRound, r, entries, complaints)
		want := c.verdicts
		c.verdicts = nil
		n.judge(s, y, lastRound, r, entries, complaints)
		if !reflect.DeepEqual(c.verdicts, want) {
			t.Fatalf("trial %d: flat index raised\n%v\nthe reference raised\n%v", trial, c.verdicts, want)
		}
		for _, v := range want {
			kinds[string(v.Kind)]++
		}
		if len(want) == 0 {
			kinds["none"]++
		}
	}
	for _, k := range []string{string(VerdictMissingPropose), string(VerdictUnservedRequest), "none"} {
		if kinds[k] == 0 {
			t.Errorf("no trial drew %s: %v", k, kinds)
		}
	}
}

// TestAuditReplyAllocationsFlat: an audit decodes into pooled scratch, so
// replaying a 200-entry honest suffix allocates what a 20-entry one does.
func TestAuditReplyAllocationsFlat(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation counts need the pool")
	}
	c := newCluster(t, 16, 0, nil, nil)
	n := c.nodes[2]
	const y, round = model.NodeID(5), model.Round(30)
	yID, err := c.suite.NewDeterministicIdentity(y, 99)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(entries int) float64 {
		l := securelog.New(y)
		for i := 0; i < entries; i += 2 {
			peer := model.NodeID(6 + i%7)
			ids := []model.UpdateID{{Seq: uint64(i)}, {Seq: uint64(i + 1)}, {Seq: uint64(i + 2)}}
			l.Append(round, securelog.EntryRecv, peer, idContent("REQ", ids))
			l.Append(round, securelog.EntrySend, peer, idContent("DATA", ids))
		}
		reply := &auditReplyMsg{Round: round, From: y, Entries: l.Since(0)}
		msg := transport.Message{From: y, To: n.id, Kind: kindAuditReply, Payload: seal(t, reply, yID)}
		st := &auditState{}
		n.audits[y], n.round = st, round
		got := testing.AllocsPerRun(50, func() {
			*st = auditState{waiting: true, pending: round, lastRound: round}
			n.HandleMessage(msg)
		})
		if st.lastSeq != uint64(entries) || len(c.verdicts) != 0 {
			t.Fatalf("%d entries: audit verified through %d, verdicts %v", entries, st.lastSeq, c.verdicts)
		}
		return got
	}
	small, large := allocs(20), allocs(200)
	if small != large {
		t.Fatalf("an audit of 20 entries allocates %.1f times, one of 200 %.1f", small, large)
	}
	t.Logf("an audit allocates %.1f times at 20 and at 200 entries", small)
}
