// Package streaming implements the video live-streaming application the
// paper evaluates PAG with (§VII-A): a source that releases a constant-
// bitrate stream as 938-byte updates grouped in windows of 40 packets,
// and a player that measures delivery continuity against the 10-second
// playout deadline.
package streaming

import (
	"fmt"
	"sync"

	"repro/internal/model"
	"repro/internal/update"
)

// Injector is the protocol-node surface a source feeds (PAG, AcTinG and
// RAC nodes all provide it).
type Injector interface {
	InjectUpdates(us []update.Update)
}

// Source releases a constant-bitrate stream into a protocol node.
type Source struct {
	gen      *update.Generator
	target   Injector
	perRound int
	emitted  uint64
}

// NewSource builds a source for the given bitrate. updateBytes and ttl
// default to the paper's settings when zero (938 bytes, 10 rounds).
func NewSource(stream model.StreamID, signer update.Signer, target Injector,
	bitrateKbps, updateBytes int, ttl model.Round) (*Source, error) {
	if target == nil {
		return nil, fmt.Errorf("streaming: source needs a target node")
	}
	if bitrateKbps <= 0 {
		return nil, fmt.Errorf("streaming: invalid bitrate %d", bitrateKbps)
	}
	if updateBytes == 0 {
		updateBytes = model.UpdateBytes
	}
	if ttl == 0 {
		ttl = model.PlayoutDelayRounds
	}
	gen, err := update.NewGenerator(stream, signer, updateBytes, ttl)
	if err != nil {
		return nil, err
	}
	perRound := bitrateKbps * 1000 / 8 / updateBytes * model.RoundDurationSeconds
	if perRound < 1 {
		perRound = 1
	}
	return &Source{gen: gen, target: target, perRound: perRound}, nil
}

// PerRound returns how many updates the source releases each round.
func (s *Source) PerRound() int { return s.perRound }

// Emitted returns the total updates released so far.
func (s *Source) Emitted() uint64 { return s.emitted }

// Tick releases one round's worth of stream into the target node; wire it
// to the engine's OnRoundStart hook.
func (s *Source) Tick(r model.Round) error {
	us, err := s.gen.Emit(r, s.perRound)
	if err != nil {
		return fmt.Errorf("streaming: emitting round %v: %w", r, err)
	}
	s.target.InjectUpdates(us)
	s.emitted += uint64(len(us))
	return nil
}

// Player consumes deliveries on one node and computes playback metrics.
// It is safe for concurrent use (the TCP deployment delivers from reader
// goroutines).
//
// The delivered set is a dense bitset indexed by sequence number, plus a
// count: a stream's sequence numbers are 0, 1, 2, … from its one signed
// source, so the set costs a bit per chunk emitted for as long as the
// player lives, where a map cost tens of bytes per chunk.
type Player struct {
	stream model.StreamID

	mu        sync.Mutex
	delivered []uint64 // bit seq%64 of word seq/64
	count     uint64
	dupes     uint64
}

// NewPlayer builds a player for one stream.
func NewPlayer(stream model.StreamID) *Player {
	return &Player{stream: stream}
}

// has reports whether seq was delivered. Callers hold p.mu.
func (p *Player) has(seq uint64) bool {
	w := seq / 64
	return w < uint64(len(p.delivered)) && p.delivered[w]>>(seq%64)&1 != 0
}

// OnDeliver is the node-config callback.
func (p *Player) OnDeliver(u update.Update) {
	if u.ID.Stream != p.stream {
		return
	}
	seq := u.ID.Seq
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.has(seq) {
		p.dupes++
		return
	}
	if w := seq / 64; w >= uint64(len(p.delivered)) {
		// Grow to the word needed, rounded up to a 64-byte line: retained
		// bytes stay within maxSeq/8 plus a constant.
		grown := make([]uint64, (w+8)&^7)
		copy(grown, p.delivered)
		p.delivered = grown
	}
	p.delivered[seq/64] |= 1 << (seq % 64)
	p.count++
}

// Delivered returns the number of distinct chunks played.
func (p *Player) Delivered() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.count
}

// Duplicates returns duplicate delivery attempts (should be zero: the
// store deduplicates before the player).
func (p *Player) Duplicates() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dupes
}

// ContinuityRatio returns the fraction of chunks [0, emittedThrough)
// delivered — the stream quality a viewer experienced.
func (p *Player) ContinuityRatio(emittedThrough uint64) float64 {
	if emittedThrough == 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	got := 0
	for seq := uint64(0); seq < emittedThrough; seq++ {
		if p.has(seq) {
			got++
		}
	}
	return float64(got) / float64(emittedThrough)
}

// DeliveredInRange counts the distinct chunks of [from, to) delivered —
// the windowed form of ContinuityRatio, used for per-epoch continuity and
// for nodes that joined mid-stream (whose fair denominator starts at their
// join point).
func (p *Player) DeliveredInRange(from, to uint64) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var got uint64
	for seq := from; seq < to; seq++ {
		if p.has(seq) {
			got++
		}
	}
	return got
}

// CompleteWindows counts fully-delivered windows of the given size among
// the first emittedThrough chunks — the paper's source "groups packets in
// windows of 40 packets" (§VII-A), and a window with a gap shows as a
// playback glitch.
func (p *Player) CompleteWindows(windowSize int, emittedThrough uint64) (complete, total int) {
	if windowSize <= 0 {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for start := uint64(0); start+uint64(windowSize) <= emittedThrough; start += uint64(windowSize) {
		total++
		ok := true
		for s := start; s < start+uint64(windowSize); s++ {
			if !p.has(s) {
				ok = false
				break
			}
		}
		if ok {
			complete++
		}
	}
	return complete, total
}
