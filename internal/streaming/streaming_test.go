package streaming

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/update"
)

type fakeSigner struct{}

func (fakeSigner) Sign(msg []byte) ([]byte, error) { return []byte{1}, nil }

type fakeInjector struct{ got []update.Update }

func (f *fakeInjector) InjectUpdates(us []update.Update) { f.got = append(f.got, us...) }

func TestSourceRate(t *testing.T) {
	inj := &fakeInjector{}
	// 300 kbps at 938 B/update → 39 updates/round (the paper's 240p).
	s, err := NewSource(0, fakeSigner{}, inj, 300, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.PerRound() != 39 {
		t.Fatalf("PerRound = %d, want 39", s.PerRound())
	}
	if err := s.Tick(1); err != nil {
		t.Fatal(err)
	}
	if len(inj.got) != 39 || s.Emitted() != 39 {
		t.Fatalf("injected %d, emitted %d", len(inj.got), s.Emitted())
	}
	if len(inj.got[0].Payload) != model.UpdateBytes {
		t.Fatalf("payload %d bytes", len(inj.got[0].Payload))
	}
	if inj.got[0].Deadline != 1+model.PlayoutDelayRounds {
		t.Fatalf("deadline %v", inj.got[0].Deadline)
	}
}

func TestSourceTinyBitrateStillEmits(t *testing.T) {
	inj := &fakeInjector{}
	s, err := NewSource(0, fakeSigner{}, inj, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.PerRound() != 1 {
		t.Fatalf("PerRound = %d", s.PerRound())
	}
}

func TestSourceValidation(t *testing.T) {
	if _, err := NewSource(0, fakeSigner{}, nil, 300, 0, 0); err == nil {
		t.Fatal("nil target accepted")
	}
	if _, err := NewSource(0, fakeSigner{}, &fakeInjector{}, 0, 0, 0); err == nil {
		t.Fatal("zero bitrate accepted")
	}
}

func mkU(seq uint64) update.Update {
	return update.Update{ID: model.UpdateID{Stream: 0, Seq: seq}}
}

func TestPlayerContinuity(t *testing.T) {
	p := NewPlayer(0)
	for _, seq := range []uint64{0, 1, 2, 4} { // gap at 3
		p.OnDeliver(mkU(seq))
	}
	if p.Delivered() != 4 {
		t.Fatalf("Delivered = %d", p.Delivered())
	}
	if got := p.ContinuityRatio(5); got != 0.8 {
		t.Fatalf("ContinuityRatio = %v", got)
	}
	if got := p.ContinuityRatio(0); got != 0 {
		t.Fatalf("empty ratio = %v", got)
	}
}

func TestPlayerIgnoresOtherStreams(t *testing.T) {
	p := NewPlayer(0)
	p.OnDeliver(update.Update{ID: model.UpdateID{Stream: 9, Seq: 0}})
	if p.Delivered() != 0 {
		t.Fatal("other stream delivered")
	}
}

func TestPlayerDuplicates(t *testing.T) {
	p := NewPlayer(0)
	p.OnDeliver(mkU(1))
	p.OnDeliver(mkU(1))
	if p.Duplicates() != 1 || p.Delivered() != 1 {
		t.Fatalf("dupes %d delivered %d", p.Duplicates(), p.Delivered())
	}
}

func TestCompleteWindows(t *testing.T) {
	p := NewPlayer(0)
	// Deliver chunks 0..7 except 5: window [0,4) complete, [4,8) not.
	for seq := uint64(0); seq < 8; seq++ {
		if seq != 5 {
			p.OnDeliver(mkU(seq))
		}
	}
	complete, total := p.CompleteWindows(4, 8)
	if total != 2 || complete != 1 {
		t.Fatalf("windows %d/%d, want 1/2", complete, total)
	}
	if c, tot := p.CompleteWindows(0, 8); c != 0 || tot != 0 {
		t.Fatal("zero window size should be empty")
	}
}

// mapPlayer is the delivered set as it was before the bitset — a
// map[uint64]bool — kept as the reference the bitset must agree with.
type mapPlayer struct {
	delivered map[uint64]bool
	dupes     uint64
}

func (p *mapPlayer) deliver(seq uint64) {
	if p.delivered[seq] {
		p.dupes++
		return
	}
	p.delivered[seq] = true
}

func (p *mapPlayer) inRange(from, to uint64) (got uint64) {
	for seq := from; seq < to; seq++ {
		if p.delivered[seq] {
			got++
		}
	}
	return got
}

func (p *mapPlayer) completeWindows(size int, through uint64) (complete, total int) {
	for start := uint64(0); start+uint64(size) <= through; start += uint64(size) {
		total++
		if p.inRange(start, start+uint64(size)) == uint64(size) {
			complete++
		}
	}
	return complete, total
}

// TestPlayerBitsetMatchesMap: 10 000 deliveries, in order and shuffled
// with gaps and repeats, answer every query as the map version does, and
// the set retains a bit per sequence number plus a constant.
func TestPlayerBitsetMatchesMap(t *testing.T) {
	const n = 10000
	inOrder := make([]uint64, n)
	for i := range inOrder {
		inOrder[i] = uint64(i)
	}
	rnd := rand.New(rand.NewSource(14))
	shuffled := make([]uint64, n)
	for i := range shuffled {
		// ~1/8 of the range never arrives, ~1/8 arrives twice.
		shuffled[i] = uint64(rnd.Intn(n * 9 / 8))
	}
	for name, seqs := range map[string][]uint64{"in-order": inOrder, "out-of-order": shuffled} {
		p, ref := NewPlayer(0), &mapPlayer{delivered: make(map[uint64]bool)}
		var maxSeq uint64
		for i, seq := range seqs {
			p.OnDeliver(mkU(seq))
			ref.deliver(seq)
			maxSeq = max(maxSeq, seq)
			if i%997 != 0 && i != n-1 {
				continue
			}
			through := maxSeq + 100 // queries run past what was delivered
			if got, want := p.Delivered(), uint64(len(ref.delivered)); got != want {
				t.Fatalf("%s after %d: Delivered %d, want %d", name, i, got, want)
			}
			if got, want := p.Duplicates(), ref.dupes; got != want {
				t.Fatalf("%s after %d: Duplicates %d, want %d", name, i, got, want)
			}
			for _, r := range [][2]uint64{{0, through}, {maxSeq / 3, maxSeq / 2}, {63, 129}, {through, through + 64}} {
				if got, want := p.DeliveredInRange(r[0], r[1]), ref.inRange(r[0], r[1]); got != want {
					t.Fatalf("%s after %d: DeliveredInRange%v %d, want %d", name, i, r, got, want)
				}
			}
			if got, want := p.ContinuityRatio(through), float64(ref.inRange(0, through))/float64(through); got != want {
				t.Fatalf("%s after %d: ContinuityRatio %v, want %v", name, i, got, want)
			}
			gc, gt := p.CompleteWindows(40, through)
			wc, wt := ref.completeWindows(40, through)
			if gc != wc || gt != wt {
				t.Fatalf("%s after %d: CompleteWindows %d/%d, want %d/%d", name, i, gc, gt, wc, wt)
			}
		}
		if retained, bound := uint64(cap(p.delivered))*8, maxSeq/8+64; retained > bound {
			t.Errorf("%s: delivered set retains %d bytes for max seq %d, bound %d", name, retained, maxSeq, bound)
		}
	}
}
