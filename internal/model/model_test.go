package model

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
)

func TestNodeIDString(t *testing.T) {
	if got := NodeID(7).String(); got != "n7" {
		t.Fatalf("NodeID(7).String() = %q, want n7", got)
	}
	if got := NoNode.String(); got != "n∅" {
		t.Fatalf("NoNode.String() = %q", got)
	}
}

func TestRoundString(t *testing.T) {
	if got := Round(12).String(); got != "r12" {
		t.Fatalf("Round(12).String() = %q, want r12", got)
	}
}

func TestUpdateIDString(t *testing.T) {
	u := UpdateID{Stream: 2, Seq: 40}
	if got := u.String(); got != "u2.40" {
		t.Fatalf("UpdateID.String() = %q", got)
	}
}

func TestUpdateIDLessTotalOrder(t *testing.T) {
	ids := []UpdateID{
		{Stream: 2, Seq: 1},
		{Stream: 1, Seq: 9},
		{Stream: 1, Seq: 2},
		{Stream: 3, Seq: 0},
		{Stream: 1, Seq: 2},
	}
	slices.SortFunc(ids, UpdateID.Compare)
	for i := 1; i < len(ids); i++ {
		if ids[i].Compare(ids[i-1]) < 0 {
			t.Fatalf("not sorted at %d: %v", i, ids)
		}
	}
	if ids[0] != (UpdateID{Stream: 1, Seq: 2}) {
		t.Fatalf("unexpected min: %v", ids[0])
	}
}

func TestUpdateIDLessIrreflexive(t *testing.T) {
	f := func(s uint32, q uint64) bool {
		u := UpdateID{Stream: StreamID(s), Seq: q}
		return u.Compare(u) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateIDLessAsymmetric(t *testing.T) {
	f := func(s1, s2 uint32, q1, q2 uint64) bool {
		u := UpdateID{Stream: StreamID(s1), Seq: q1}
		v := UpdateID{Stream: StreamID(s2), Seq: q2}
		if u == v {
			return u.Compare(v) == 0 && v.Compare(u) == 0
		}
		return u.Compare(v) == -v.Compare(u) && u.Compare(v) != 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQualityLadder(t *testing.T) {
	qs := Qualities()
	if len(qs) != 6 {
		t.Fatalf("len(Qualities()) = %d, want 6", len(qs))
	}
	// Table I payload sizes.
	want := map[Quality]int{
		Quality144p:  80,
		Quality240p:  300,
		Quality360p:  750,
		Quality480p:  1000,
		Quality720p:  2500,
		Quality1080p: 4500,
	}
	for q, kbps := range want {
		if got := q.PayloadKbps(); got != kbps {
			t.Errorf("%v.PayloadKbps() = %d, want %d", q, got, kbps)
		}
	}
	// Ladder is strictly ascending in bitrate.
	for i := 1; i < len(qs); i++ {
		if qs[i].PayloadKbps() <= qs[i-1].PayloadKbps() {
			t.Errorf("ladder not ascending at %v", qs[i])
		}
	}
}

func TestQualityUnknown(t *testing.T) {
	q := Quality(99)
	if q.PayloadKbps() != 0 {
		t.Fatal("unknown quality should have zero payload")
	}
	if got := q.String(); got != "q?99" {
		t.Fatalf("String() = %q", got)
	}
}

func TestFanoutFor(t *testing.T) {
	cases := []struct {
		n, want int
	}{
		{1, 3},       // floor
		{10, 3},      // floor
		{432, 3},     // deployment size, paper uses 3
		{1000, 3},    // "3 when the system contains 1000 nodes"
		{1999, 3},    // 1999 → 199 → 19 → 1: three divisions
		{2000, 4},    // the smallest system at f = 4
		{10000, 4},   // log10
		{100000, 5},  // log10
		{1000000, 6}, // log10: 2.5 Mbps point of Fig 9
	}
	for _, c := range cases {
		if got := FanoutFor(c.n); got != c.want {
			t.Errorf("FanoutFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestFanoutMonotonic(t *testing.T) {
	prev := 0
	for n := 1; n < 10_000_000; n *= 3 {
		f := FanoutFor(n)
		if f < prev {
			t.Fatalf("FanoutFor not monotonic at n=%d", n)
		}
		prev = f
	}
}

// TestSaturationRounds: the epidemic saturation depth is ⌈log_{f+1} N⌉, and
// the forwarding TTL adds two rounds of slack, at least 4 and at most the
// playout delay. The rows are Fig 9's full sessions, its forced-fanout
// rows (N = 10^f) and the 64- and 432-node sessions of
// TestForcedFanoutPricesLargeN.
func TestSaturationRounds(t *testing.T) {
	for _, tc := range []struct {
		n, fanout, sat int
		ttl            Round
	}{
		{64, 3, 3, 5}, {64, 4, 3, 5}, {432, 3, 5, 7}, {432, 4, 4, 6},
		{1296, 3, 6, 8}, {4096, 4, 6, 8}, {16384, 4, 7, 9},
		{1000, 3, 5, 7}, {10000, 4, 6, 8}, {100000, 5, 7, 9}, {1000000, 6, 8, 10},
		{5, 3, 2, 4}, {1 << 30, 3, 15, PlayoutDelayRounds},
	} {
		if got := SaturationRounds(tc.n, tc.fanout); got != tc.sat {
			t.Errorf("SaturationRounds(%d, %d) = %d, want %d", tc.n, tc.fanout, got, tc.sat)
		}
		if got := ForwardingTTL(tc.n, tc.fanout); got != tc.ttl {
			t.Errorf("ForwardingTTL(%d, %d) = %d, want %d", tc.n, tc.fanout, got, tc.ttl)
		}
	}
}

// TestSplitMix64Read: the byte stream is the low byte of each successive
// value, so readers seeded alike agree byte for byte — the property a hash
// modulus derived from the session seed rests on.
func TestSplitMix64Read(t *testing.T) {
	ref := SplitMix64{State: 42}
	want := make([]byte, 37)
	for i := range want {
		want[i] = byte(ref.Next())
	}
	r := SplitMix64{State: 42}
	got := make([]byte, 37)
	if n, err := r.Read(got[:20]); n != 20 || err != nil {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if _, err := r.Read(got[20:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Read bytes %x, want %x", got, want)
	}
	if want[0] != 0x95 {
		t.Fatalf("first byte %#x: the stream changed", want[0])
	}
}
