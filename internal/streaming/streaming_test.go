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
	s, err := NewSource(fakeSigner{}, inj, 300, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := PerRound(300, model.UpdateBytes); got != 39 {
		t.Fatalf("PerRound = %d, want 39", got)
	}
	if err := s.Tick(1); err != nil {
		t.Fatal(err)
	}
	if len(inj.got) != 39 {
		t.Fatalf("injected %d", len(inj.got))
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
	s, err := NewSource(fakeSigner{}, inj, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Tick(1); err != nil {
		t.Fatal(err)
	}
	if len(inj.got) != 1 {
		t.Fatalf("injected %d", len(inj.got))
	}
}

func TestSourceValidation(t *testing.T) {
	if _, err := NewSource(fakeSigner{}, nil, 300, 0, 0); err == nil {
		t.Fatal("nil target accepted")
	}
	if _, err := NewSource(fakeSigner{}, &fakeInjector{}, 0, 0, 0); err == nil {
		t.Fatal("zero bitrate accepted")
	}
}

func mkU(seq uint64) update.Update {
	return update.Update{ID: model.UpdateID{Stream: 0, Seq: seq}}
}

func TestPlayerContinuity(t *testing.T) {
	p := NewPlayer()
	for _, seq := range []uint64{0, 1, 2, 4} { // gap at 3
		p.OnDeliver(mkU(seq))
	}
	if p.Delivered() != 4 {
		t.Fatalf("Delivered = %d", p.Delivered())
	}
	if got := p.DeliveredInRange(0, 5); got != 4 {
		t.Fatalf("DeliveredInRange(0, 5) = %d, want 4", got)
	}
	if got := p.DeliveredInRange(3, 3); got != 0 {
		t.Fatalf("empty range = %d", got)
	}
}

func TestPlayerDuplicates(t *testing.T) {
	p := NewPlayer()
	p.OnDeliver(mkU(1))
	p.OnDeliver(mkU(1))
	if p.Duplicates() != 1 || p.Delivered() != 1 {
		t.Fatalf("dupes %d delivered %d", p.Duplicates(), p.Delivered())
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
		p, ref := NewPlayer(), &mapPlayer{delivered: make(map[uint64]bool)}
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
		}
		if retained, bound := uint64(cap(p.delivered))*8, maxSeq/8+64; retained > bound {
			t.Errorf("%s: delivered set retains %d bytes for max seq %d, bound %d", name, retained, maxSeq, bound)
		}
	}
}
