package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// quick returns the smoke-test options.
func quick() Options { return Options{Quick: true, Seed: 3} }

func TestFig7Smoke(t *testing.T) {
	r, err := Fig7(quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "fig7" || !strings.Contains(r.Text, "AcTinG") ||
		!strings.Contains(r.Text, "PAG") || !strings.Contains(r.Text, "ratio") {
		t.Fatalf("fig7 output:\n%s", r.Text)
	}
}

func TestFig8Smoke(t *testing.T) {
	r, err := Fig8(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Text, "update size") || !strings.Contains(r.Text, "100000") {
		t.Fatalf("fig8 output:\n%s", r.Text)
	}
}

func TestFig9Smoke(t *testing.T) {
	r, err := Fig9(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Text, "1000000") {
		t.Fatalf("fig9 output must reach 10^6 nodes:\n%s", r.Text)
	}
	// The quick profile's measured rows: one full session at N=128 and the
	// forced-fanout rows at f = 3 and 4. Each forced row stays within 5 % of
	// its analytic column (340.8 vs 348.8 and 599.4 vs 601.7 kbps at seed 3;
	// the worst of the four rows f = 3…6 on seeds 1 and 3 is 2.3 %), and the
	// cost rises with f.
	var full bool
	var forced [][]string
	for _, line := range strings.Split(r.Text, "\n") {
		switch f := strings.Fields(line); {
		case len(f) == 7 && f[0] == "128" && f[1] == "full":
			full = true
		case len(f) == 7 && strings.HasPrefix(f[1], "10^") && f[1][3:] == f[0]:
			forced = append(forced, f)
		}
	}
	if !full || len(forced) != 2 {
		t.Fatalf("fig9 output lacks its measured rows:\n%s", r.Text)
	}
	prev := 0.0
	for _, row := range forced {
		measured, err1 := strconv.ParseFloat(row[2], 64)
		predicted, err2 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil || math.Abs(measured/predicted-1) > 0.05 {
			t.Errorf("fanout %s row measured %s kbps against analytic %s: want within 5 %%\n%s",
				row[0], row[2], row[3], r.Text)
		}
		if measured <= prev {
			t.Errorf("fanout %s row measured %s kbps, not above the lower fanout's %.1f", row[0], row[2], prev)
		}
		prev = measured
	}
}

func TestFig10Smoke(t *testing.T) {
	r, err := Fig10(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Text, "PAG-5") || !strings.Contains(r.Text, "minimum") {
		t.Fatalf("fig10 output:\n%s", r.Text)
	}
}

func TestTable1Smoke(t *testing.T) {
	r, err := Table1(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"144p", "240p", "360p", "480p", "720p", "1080p", "measured"} {
		if !strings.Contains(r.Text, q) {
			t.Fatalf("table1 missing %q:\n%s", q, r.Text)
		}
	}
}

func TestTable2Smoke(t *testing.T) {
	r, err := Table2(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Text, "∅") {
		t.Fatalf("table2 must show RAC's empty cells:\n%s", r.Text)
	}
	if !strings.Contains(r.Text, "1080p") {
		t.Fatalf("table2 must reach 1080p:\n%s", r.Text)
	}
	// The measured footer: a real capacity sweep, not just the analytic
	// model.
	for _, want := range []string{"measured", "x-stream", "deferred", "expired"} {
		if !strings.Contains(r.Text, want) {
			t.Fatalf("table2 missing measured-sweep column %q:\n%s", want, r.Text)
		}
	}
}

func TestCliffSmoke(t *testing.T) {
	r, err := Cliff(quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "cliff" || !strings.Contains(r.Text, "cap(kbps)") ||
		!strings.Contains(r.Text, "warmup") {
		t.Fatalf("cliff output:\n%s", r.Text)
	}
	// The sweep must actually exercise the queue model: at caps near the
	// stream rate the link defers traffic.
	if !strings.Contains(r.Text, "deferred") {
		t.Fatalf("cliff output missing queue columns:\n%s", r.Text)
	}
}

func TestProVerifSmoke(t *testing.T) {
	r, err := ProVerif(quick())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(r.Text, "P1 HOLDS") < 4 {
		t.Fatalf("expected ≥4 safe cases:\n%s", r.Text)
	}
	if strings.Count(r.Text, "ATTACK FOUND") != 2 {
		t.Fatalf("expected exactly 2 attack cases:\n%s", r.Text)
	}
}

func TestChurnStudySmoke(t *testing.T) {
	r, err := ChurnStudy(quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "churn" || !strings.Contains(r.Text, "PAG") ||
		!strings.Contains(r.Text, "per-epoch slices") ||
		!strings.Contains(r.Text, "convictions") {
		t.Fatalf("churn study output:\n%s", r.Text)
	}
}

func TestAllRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	rs, err := All(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 9 {
		t.Fatalf("%d results, want 9", len(rs))
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if r.ID == "" || r.Title == "" || len(r.Text) < 50 || seen[r.ID] {
			t.Fatalf("bad result %+v", r)
		}
		seen[r.ID] = true
	}
}

func TestOptionDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Nodes != 48 || o.StreamKbps != 300 || o.ModulusBits != 512 {
		t.Fatalf("full defaults: %+v", o)
	}
	q := Options{Quick: true}.withDefaults()
	if q.Nodes != 24 || q.StreamKbps != 60 || q.ModulusBits != 128 {
		t.Fatalf("quick defaults: %+v", q)
	}
}
