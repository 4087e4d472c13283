package main

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The boundary wrapper: spans are recorded from the benchmark's side of
// the transport interface, around the calls the engine and the protocol
// nodes make into it — nothing inside the program changes. One driver
// goroutine runs every serial round, so the open spans form a stack and
// each span's parent is the one open when it started.

type spanName uint8

const (
	spanRound spanName = iota
	spanBeginRound
	spanDeliverAll
	spanHandle
	spanSend
)

var spanNames = [...]string{"round", "begin_round", "deliver_all", "handle", "send"}

// span is one boundary crossing. Times are nanoseconds since the recorder
// was created; parent indexes recorder.spans (-1 for a round).
type span struct {
	name       spanName
	kind       uint8 // transport.Message.Kind for handle and send
	round      uint32
	parent     int32
	start, end int64
}

// recorder keeps spans in memory until the run is over. It records only
// inside runRound, so warm-up rounds cost nothing.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int32
	round uint32
	on    bool
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name spanName, kind uint8) int32 {
	if !r.on {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, kind: kind, round: r.round, parent: parent,
		start: int64(time.Since(r.t0))})
	r.open = append(r.open, i)
	return i
}

func (r *recorder) end(i int32) {
	if i < 0 {
		return
	}
	r.spans[i].end = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// runRound brackets one engine round in a round span.
func (r *recorder) runRound(round model.Round, run func()) {
	r.round, r.on = uint32(round), true
	i := r.begin(spanRound, 0)
	run()
	r.end(i)
	r.on = false
}

// writeJSONL writes one span per line: workload, id, parent (-1 at the
// root), name, wire kind where there is one, round, and start/end in
// nanoseconds. Ids are per workload.
func (r *recorder) writeJSONL(w io.Writer, workload string) error {
	bw := bufio.NewWriter(w)
	for i, s := range r.spans {
		kind := ""
		if s.name == spanHandle || s.name == spanSend {
			kind = fmt.Sprintf(`,"kind":%d`, s.kind)
		}
		fmt.Fprintf(bw, `{"workload":%q,"id":%d,"parent":%d,"name":%q%s,"round":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			workload, i, s.parent, spanNames[s.name], kind, s.round, s.start, s.end)
	}
	return bw.Flush()
}

// spanNet is the FaultyNetwork a traced serial session runs on: the real
// network with spans around BeginRound, DeliverAll, every handler and
// every send.
type spanNet struct {
	transport.FaultyNetwork
	rec *recorder
}

func (n *spanNet) BeginRound() {
	i := n.rec.begin(spanBeginRound, 0)
	n.FaultyNetwork.BeginRound()
	n.rec.end(i)
}

func (n *spanNet) DeliverAll() int {
	i := n.rec.begin(spanDeliverAll, 0)
	delivered := n.FaultyNetwork.DeliverAll()
	n.rec.end(i)
	return delivered
}

func (n *spanNet) Register(id model.NodeID, h transport.Handler) (transport.Endpoint, error) {
	ep, err := n.FaultyNetwork.Register(id, func(m transport.Message) {
		i := n.rec.begin(spanHandle, m.Kind)
		h(m)
		n.rec.end(i)
	})
	if err != nil {
		return nil, err
	}
	return &spanEndpoint{Endpoint: ep, rec: n.rec}, nil
}

type spanEndpoint struct {
	transport.Endpoint
	rec *recorder
}

func (e *spanEndpoint) Send(to model.NodeID, kind uint8, payload []byte) error {
	i := e.rec.begin(spanSend, kind)
	err := e.Endpoint.Send(to, kind, payload)
	e.rec.end(i)
	return err
}

// ledger is the self-time account of the recorded rounds, in nanoseconds.
// The five self times partition the round spans exactly: every instant of
// a round belongs to the innermost span open at that instant.
type ledger struct {
	rounds                        int
	round, step, beginRound       int64
	deliverSelf, handleSelf, send int64
	handles, sends                int
	handleByClass                 [3]int64 // exchange, monitoring, judicial
}

var kindClasses = [3]string{"exchange", "monitoring", "judicial"}

// kindClass groups PAG wire kinds the way the paper's figures do: the
// Fig 5 exchange, the Fig 6 monitoring relay, and accusations, probes and
// handovers.
func kindClass(kind uint8) int {
	switch {
	case kind <= wire.KindAck:
		return 0
	case kind <= wire.KindNodeDigest:
		return 1
	default:
		return 2
	}
}

// account computes the ledger. pagKinds says whether handler spans carry
// PAG wire kinds (AcTinG numbers its messages differently).
func (r *recorder) account(pagKinds bool) ledger {
	var l ledger
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		d := s.end - s.start
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	for i, s := range r.spans {
		switch s.name {
		case spanRound:
			l.rounds++
			l.round += s.end - s.start
			l.step += self[i]
		case spanBeginRound:
			l.beginRound += self[i]
		case spanDeliverAll:
			l.deliverSelf += self[i]
		case spanHandle:
			l.handles++
			l.handleSelf += self[i]
			if pagKinds {
				l.handleByClass[kindClass(s.kind)] += self[i]
			}
		case spanSend:
			l.sends++
			l.send += self[i]
		}
	}
	return l
}
