package pag

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/model"
)

// TestCohortIDsAgainstReference: the incremental top-k selection in
// CohortIDs must match a brute-force sort over all candidate scores —
// same members, ascending order, source always present.
func TestCohortIDsAgainstReference(t *testing.T) {
	ref := func(globalN, k int, seed uint64) []model.NodeID {
		if k > globalN {
			k = globalN
		}
		type scored struct {
			id    model.NodeID
			score uint64
		}
		var all []scored
		for i := 2; i <= globalN; i++ {
			id := model.NodeID(i)
			all = append(all, scored{id, model.Hash64(seed ^ uint64(id)*0x9E3779B97F4A7C15 ^ 0xC04057)})
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].score < all[j].score })
		out := []model.NodeID{SourceID}
		for _, c := range all[:k-1] {
			out = append(out, c.id)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}

	for _, tc := range []struct {
		globalN, k int
		seed       uint64
	}{
		{4, 1, 1}, {4, 2, 1}, {4, 4, 1}, {16, 5, 1}, {16, 16, 3},
		{256, 24, 1}, {256, 24, 99}, {1296, 48, 1}, {5000, 64, 7},
	} {
		got := CohortIDs(tc.globalN, tc.k, tc.seed)
		want := ref(tc.globalN, tc.k, tc.seed)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("CohortIDs(%d,%d,%d) = %v, want %v", tc.globalN, tc.k, tc.seed, got, want)
		}
		hasSource := false
		for _, id := range got {
			if id == SourceID {
				hasSource = true
			}
		}
		if !hasSource || len(got) != min(tc.k, tc.globalN) {
			t.Errorf("CohortIDs(%d,%d,%d): %d ids, source=%v", tc.globalN, tc.k, tc.seed, len(got), hasSource)
		}
	}
}

// scaleFingerprint reduces a scale run's cohort observables to one hash:
// the full per-cohort-node bandwidth distribution (exact float bits) plus
// the cohort continuity.
func scaleFingerprint(ss *ScaleSession) string {
	h := sha256.New()
	for _, bw := range ss.CohortBandwidthKbps() {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(bw))
		h.Write(b[:])
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(ss.MeanContinuity()))
	h.Write(b[:])
	return fmt.Sprintf("%x", h.Sum(nil))
}

// runScale builds a sampled-cohort session, runs warmup + a measured
// window, and returns the cohort fingerprint and the lite plane's mean
// modelled bandwidth.
func runScale(t *testing.T, cfg ScaleConfig, warmup, rounds int) (string, float64) {
	t.Helper()
	ss, err := NewScaleSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss.Run(warmup)
	ss.StartMeasuring()
	ss.Run(rounds)
	return scaleFingerprint(ss), ss.Lite.MeanBandwidthKbps()
}

// TestScaleCohortByteIdentity: the sampled-cohort mode's core promise —
// lite nodes exchange no messages and share no mutable state with the
// cohort, so the cohort's measured report is byte-identical at any
// worker count. The second row is Fig 9's measured setting (60 kbps,
// 128-bit hash, 12 + 6 rounds, cohort 64) at its smallest N.
func TestScaleCohortByteIdentity(t *testing.T) {
	rows := []struct {
		cfg            ScaleConfig
		warmup, rounds int
		long           bool // skipped under -short
	}{
		{ScaleConfig{GlobalNodes: 256, CohortNodes: 16, StreamKbps: 2, UpdateBytes: 64, ModulusBits: 128, Seed: 7}, 4, 4, false},
		{ScaleConfig{GlobalNodes: 1296, CohortNodes: 64, StreamKbps: 60, ModulusBits: 128, Seed: 1}, 12, 6, true},
	}
	workerCounts := []int{1, 4}
	if testing.Short() {
		workerCounts = []int{4}
	}
	for _, r := range rows {
		t.Run(fmt.Sprintf("N=%d/cohort=%d", r.cfg.GlobalNodes, r.cfg.CohortNodes), func(t *testing.T) {
			if r.long && testing.Short() {
				t.Skip("a 64-node cohort at 60 kbps")
			}
			wantFp, wantLite := runScale(t, r.cfg, r.warmup, r.rounds)
			if wantLite <= 0 {
				t.Fatalf("lite plane modelled %v kbps, want > 0", wantLite)
			}
			for _, w := range workerCounts {
				cfg := r.cfg
				cfg.Workers = w
				fp, lite := runScale(t, cfg, r.warmup, r.rounds)
				if fp != wantFp {
					t.Errorf("workers=%d: cohort fingerprint %s, want %s (serial)", w, fp, wantFp)
				}
				if lite != wantLite {
					t.Errorf("workers=%d: lite mean %v kbps, want %v", w, lite, wantLite)
				}
			}
		})
	}
}

// TestScaleSessionShape: cohort wiring invariants — the session's members
// are exactly the cohort ids, the fanout matches the modelled global
// size, and the analytic prediction targets globalN (not the cohort).
func TestScaleSessionShape(t *testing.T) {
	const globalN, cohortN = 256, 16
	ss, err := NewScaleSession(ScaleConfig{
		GlobalNodes: globalN, CohortNodes: cohortN,
		StreamKbps: 2, UpdateBytes: 64, ModulusBits: 128, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ss.GlobalNodes() != globalN {
		t.Errorf("GlobalNodes() = %d", ss.GlobalNodes())
	}
	if got, want := ss.Config().Fanout, model.FanoutFor(globalN); got != want {
		t.Errorf("cohort fanout %d, want FanoutFor(%d) = %d", got, globalN, want)
	}
	if got := len(ss.Cohort); got != cohortN {
		t.Errorf("%d cohort ids, want %d", got, cohortN)
	}
	if ss.Lite.Len() != globalN-cohortN {
		t.Errorf("%d lite nodes, want %d", ss.Lite.Len(), globalN-cohortN)
	}
	if ss.AnalyticKbps() <= 0 {
		t.Errorf("analytic prediction %v, want > 0", ss.AnalyticKbps())
	}
	// A cohort too small for the global fanout must be rejected: the
	// protocol cannot pick Fanout distinct successors out of fewer peers.
	if _, err := NewScaleSession(ScaleConfig{
		GlobalNodes: 100000, CohortNodes: 3,
		StreamKbps: 2, UpdateBytes: 64, ModulusBits: 128, Seed: 7,
	}); err == nil {
		t.Error("undersized cohort accepted")
	}
}
