// Package model defines the basic identifiers and constants shared by every
// subsystem of the PAG reproduction: node identifiers, round numbers, update
// identifiers and the video-quality ladder used throughout the paper's
// evaluation (Table I).
package model

import (
	"fmt"
	"strconv"
)

// NodeID uniquely identifies a node in the system. The paper assumes nodes
// are "uniquely identified with an integer identifier, for example
// deterministically computed using their IP addresses" (§III); in the
// simulator identifiers are dense indexes, in the TCP deployment they are
// derived from the listen address.
type NodeID uint32

// NoNode is the zero NodeID sentinel used where "no node" must be expressed.
// Valid node identifiers start at 1 so that the zero value of a NodeID field
// is never a real node.
const NoNode NodeID = 0

// String implements fmt.Stringer.
func (id NodeID) String() string {
	if id == NoNode {
		return "n∅"
	}
	return "n" + strconv.FormatUint(uint64(id), 10)
}

// Round is a gossip round number. Time is structured in rounds of fixed
// duration (the gossip period, 1 s in the paper's deployment §VII-A);
// round numbers start at 1.
type Round uint64

// ExchangeID names one §V-A exchange — round r, sender (predecessor)
// `from` serving successor `to`. Every endpoint and monitor of the
// exchange derives the same id locally from fields already carried by
// the wire messages (Round/From/To), so trace events from different
// processes correlate without any wire change, and the id is
// byte-identical at any worker count.
func ExchangeID(r Round, from, to NodeID) string {
	return "r" + strconv.FormatUint(uint64(r), 10) + ":" +
		strconv.FormatUint(uint64(from), 10) + ">" +
		strconv.FormatUint(uint64(to), 10)
}

// ParseExchangeID inverts ExchangeID; ok is false for anything that is not
// an exchange id.
func ParseExchangeID(s string) (r Round, from, to NodeID, ok bool) {
	if len(s) < 2 || s[0] != 'r' {
		return 0, 0, 0, false
	}
	colon := -1
	for i := 1; i < len(s); i++ {
		if s[i] == ':' {
			colon = i
			break
		}
	}
	if colon < 0 {
		return 0, 0, 0, false
	}
	gt := -1
	for i := colon + 1; i < len(s); i++ {
		if s[i] == '>' {
			gt = i
			break
		}
	}
	if gt < 0 {
		return 0, 0, 0, false
	}
	rv, err1 := strconv.ParseUint(s[1:colon], 10, 64)
	fv, err2 := strconv.ParseUint(s[colon+1:gt], 10, 32)
	tv, err3 := strconv.ParseUint(s[gt+1:], 10, 32)
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, false
	}
	return Round(rv), NodeID(fv), NodeID(tv), true
}

// String implements fmt.Stringer.
func (r Round) String() string { return "r" + strconv.FormatUint(uint64(r), 10) }

// StreamID identifies a gossip session (one disseminated content). The
// paper allows "several gossip sessions disseminating different contents"
// to hold simultaneously (§III).
type StreamID uint32

// UpdateID identifies one update (data chunk) of a stream.
type UpdateID struct {
	Stream StreamID
	Seq    uint64
}

// String implements fmt.Stringer.
func (u UpdateID) String() string {
	return fmt.Sprintf("u%d.%d", u.Stream, u.Seq)
}

// Less provides a total order on update identifiers, used to keep encoded
// sets canonical (deterministic hashing and byte-exact bandwidth numbers).
func (u UpdateID) Less(v UpdateID) bool {
	if u.Stream != v.Stream {
		return u.Stream < v.Stream
	}
	return u.Seq < v.Seq
}

// Quality is one rung of the paper's video-quality ladder (Table I).
type Quality int

// The quality ladder of Table I.
const (
	Quality144p Quality = iota + 1
	Quality240p
	Quality360p
	Quality480p
	Quality720p
	Quality1080p
)

// qualityInfo describes one ladder rung.
type qualityInfo struct {
	name    string
	payload int // Kbps, from Table I
}

var _qualities = map[Quality]qualityInfo{
	Quality144p:  {"144p", 80},
	Quality240p:  {"240p", 300},
	Quality360p:  {"360p", 750},
	Quality480p:  {"480p", 1000},
	Quality720p:  {"720p", 2500},
	Quality1080p: {"1080p", 4500},
}

// Qualities returns the full ladder in ascending order.
func Qualities() []Quality {
	return []Quality{
		Quality144p, Quality240p, Quality360p,
		Quality480p, Quality720p, Quality1080p,
	}
}

// String implements fmt.Stringer.
func (q Quality) String() string {
	if info, ok := _qualities[q]; ok {
		return info.name
	}
	return "q?" + strconv.Itoa(int(q))
}

// PayloadKbps returns the stream bitrate of the quality in Kbps (Table I,
// "Payload size" row). It returns 0 for an unknown quality.
func (q Quality) PayloadKbps() int {
	return _qualities[q].payload
}

// Valid reports whether q is one of the ladder rungs.
func (q Quality) Valid() bool {
	_, ok := _qualities[q]
	return ok
}

// Paper-wide workload constants (§VII-A, "Real deployment settings").
const (
	// UpdateBytes is the size of one update: "updates of 938B are
	// released 10 seconds before being consumed".
	UpdateBytes = 938

	// WindowUpdates is the source packet grouping: "A source groups
	// packets in windows of 40 packets".
	WindowUpdates = 40

	// PlayoutDelayRounds is the number of rounds between the release of
	// an update and its playback deadline (10 s at 1 s per round).
	PlayoutDelayRounds = 10

	// RoundDuration is the gossip period in seconds.
	RoundDurationSeconds = 1
)

// UpdatesPerSecond returns how many 938-byte updates per second a stream of
// the given bitrate (Kbps) produces. This is the quantity that drives the
// homomorphic-hash counts of Table I.
func UpdatesPerSecond(payloadKbps int) int {
	bytesPerSecond := payloadKbps * 1000 / 8
	n := bytesPerSecond / UpdateBytes
	if n < 1 && payloadKbps > 0 {
		n = 1
	}
	return n
}

// FanoutFor returns the dissemination fanout (= number of successors,
// predecessors and monitors per node) the paper uses for a system of n
// nodes: "each user has log(N) successors" (§VII-D), "e.g., 3 when the
// system contains 1000 nodes" (§VII-A) — i.e. ⌈log10 N⌉ with a floor of 3,
// the minimum the privacy proof supports (§VI-A).
func FanoutFor(n int) int {
	f := 0
	for v := n; v > 1; v /= 10 {
		f++
	}
	if f < 3 {
		f = 3
	}
	return f
}

// SaturationRounds returns the epidemic saturation time ⌈log_{f+1} n⌉: how
// many rounds an update takes to reach all n nodes when every holder
// serves fanout new ones per round.
func SaturationRounds(n, fanout int) int {
	sat := 0
	for reach := 1; reach < n; reach *= fanout + 1 {
		sat++
	}
	return sat
}

// ForwardingTTL returns the default forwarding expiration in rounds (§V-D:
// "Determining this expiration delay is up to the system designer") for n
// nodes at the given fanout: the saturation time plus two rounds of slack,
// at least 4 and capped at the playout delay — forwarding past saturation
// only re-circulates content everyone already has.
func ForwardingTTL(n, fanout int) Round {
	return Round(min(max(SaturationRounds(n, fanout)+2, 4), PlayoutDelayRounds))
}

// SplitMix64 is the reproduction's shared deterministic PRNG (splitmix64):
// tiny, fast and platform-stable, so membership assignments and scenario
// expansion replay identically everywhere.
type SplitMix64 struct{ State uint64 }

// Next returns the next value of the stream.
func (s *SplitMix64) Next() uint64 {
	s.State += 0x9E3779B97F4A7C15
	return Hash64(s.State)
}

// Float returns the next value mapped uniformly into [0, 1).
func (s *SplitMix64) Float() float64 {
	return float64(s.Next()>>11) / float64(1<<53)
}

// Read implements io.Reader: each byte is the low byte of the next value,
// so a stream seeded alike yields the same bytes in every process — what a
// session derives its hash modulus from.
func (s *SplitMix64) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(s.Next())
	}
	return len(p), nil
}

// Hash64 is the splitmix64 scrambling step on its own — a stateless
// 64-bit mixer for rendezvous scores, seed derivation and the fault
// plane's per-message loss decisions.
func Hash64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
