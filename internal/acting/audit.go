package acting

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/judicial"
	"repro/internal/model"
	"repro/internal/securelog"
	"repro/internal/wire"
)

// auditScratch is what admission borrows for a message: the reader it
// decodes through (off the heap) and, for an audit, the decoded reply, one
// entry's identifier list and a flat index of the suffix, so an audit
// allocates the same whatever the number of entries it replays.
type auditScratch struct {
	r     wire.Reader
	reply auditReplyMsg
	ids   []model.UpdateID // the entry being indexed
	// proposed lists the PROPOSE sends, sorted; served lists every id of
	// every DATA send, sorted; requests are the REQ receipts in entry
	// order, each a range of reqIDs.
	proposed []roundPeer
	served   []servedID
	requests []requestRange
	reqIDs   []model.UpdateID
}

var auditScratches = sync.Pool{New: func() any { return new(auditScratch) }}

// release returns s to the pool, cleared of its views into the payload the
// handler was lent: the reader, the reply's entries and signature.
func (s *auditScratch) release() {
	clear(s.reply.Entries)
	s.r, s.reply = wire.Reader{}, auditReplyMsg{Entries: s.reply.Entries[:0]}
	auditScratches.Put(s)
}

// roundPeer is the round and peer of a logged interaction.
type roundPeer struct {
	round model.Round
	peer  model.NodeID
}

func (a roundPeer) compare(b roundPeer) int {
	return cmp.Or(cmp.Compare(a.round, b.round), cmp.Compare(a.peer, b.peer))
}

// servedID is one identifier a DATA send served.
type servedID struct {
	roundPeer
	id model.UpdateID
}

func (a servedID) compare(b servedID) int {
	return cmp.Or(a.roundPeer.compare(b.roundPeer),
		cmp.Compare(a.id.Stream, b.id.Stream), cmp.Compare(a.id.Seq, b.id.Seq))
}

// requestRange is one REQ receipt: its identifiers are reqIDs[lo:hi].
type requestRange struct {
	roundPeer
	lo, hi int
}

// index fills s's index from a log suffix. An entry whose content does not
// parse as an identifier list is skipped.
func (s *auditScratch) index(entries []securelog.Entry) {
	s.proposed, s.served = s.proposed[:0], s.served[:0]
	s.requests, s.reqIDs = s.requests[:0], s.reqIDs[:0]
	for i := range entries {
		e := &entries[i]
		tag, ids, err := decodeIDList(e.Content, s.ids)
		s.ids = ids
		if err != nil {
			continue
		}
		at := roundPeer{round: e.Round, peer: e.Peer}
		switch {
		case e.Type == securelog.EntrySend && string(tag) == "PROPOSE":
			s.proposed = append(s.proposed, at)
		case e.Type == securelog.EntrySend && string(tag) == "DATA":
			for _, id := range ids {
				s.served = append(s.served, servedID{roundPeer: at, id: id})
			}
		case e.Type == securelog.EntryRecv && string(tag) == "REQ":
			lo := len(s.reqIDs)
			s.reqIDs = append(s.reqIDs, ids...)
			s.requests = append(s.requests, requestRange{roundPeer: at, lo: lo, hi: len(s.reqIDs)})
		}
	}
	slices.SortFunc(s.proposed, roundPeer.compare)
	slices.SortFunc(s.served, servedID.compare)
}

func (s *auditScratch) hasProposed(at roundPeer) bool {
	_, ok := slices.BinarySearchFunc(s.proposed, at, roundPeer.compare)
	return ok
}

func (s *auditScratch) hasServed(at roundPeer, id model.UpdateID) bool {
	_, ok := slices.BinarySearchFunc(s.served, servedID{roundPeer: at, id: id}, servedID.compare)
	return ok
}

// judge replays y's chain-verified log suffix and reports, in this order:
// every successor of rounds lastRound+1 … r that no logged proposal
// reached, every id of every logged incoming request (in entry order) that
// no DATA send of its round answered, and every complaint the suffix does
// not refute.
func (n *Node) judge(s *auditScratch, y model.NodeID, lastRound, r model.Round,
	entries []securelog.Entry, complaints []complaint) {
	s.index(entries)

	// Proposal coverage: a proposal logged to every successor of every
	// audited round — those after the base's on a first audit from it.
	for rr := lastRound + 1; rr <= r; rr++ {
		for _, succ := range n.cfg.Directory.Successors(y, rr) {
			if !s.hasProposed(roundPeer{round: rr, peer: succ}) {
				n.report(judicial.Verdict{Round: r, Kind: VerdictMissingPropose, Accused: y,
					Detail: fmt.Sprintf("no proposal to %v at %v", succ, rr)})
			}
		}
	}

	// Serve compliance: every logged incoming request answered in-round.
	for _, req := range s.requests {
		for _, id := range s.reqIDs[req.lo:req.hi] {
			if !s.hasServed(req.roundPeer, id) {
				n.report(judicial.Verdict{Round: r, Kind: VerdictUnservedRequest, Accused: y,
					Detail: fmt.Sprintf("request for %v from %v unanswered at %v",
						id, req.peer, req.round)})
			}
		}
	}

	// Complaints: even if the node omitted the request from its log, the
	// peer's signed complaint demands proof of service.
	for _, c := range complaints {
		for _, id := range c.ids {
			if !s.hasServed(roundPeer{round: c.round, peer: c.from}, id) {
				n.report(judicial.Verdict{Round: r, Kind: VerdictUnservedRequest, Accused: y,
					Detail: fmt.Sprintf("complaint by %v for %v at %v unrefuted",
						c.from, id, c.round)})
			}
		}
	}
}
