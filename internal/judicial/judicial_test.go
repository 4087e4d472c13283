package judicial

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
)

func fact(accused, accuser model.NodeID, r model.Round, kind Kind) Verdict {
	return Verdict{Round: r, Kind: kind, Accused: accused, Reporter: accuser}
}

func TestRegistryDedupe(t *testing.T) {
	reg := NewRegistry()
	m := obs.NewRegistry()
	reg.Instrument(m, nil)
	if !reg.Submit(fact(7, 3, 4, "NoForward")) {
		t.Fatal("first submission rejected")
	}
	// A byte-identical retry and a same-key report with a different
	// detail are both the same fact.
	if reg.Submit(fact(7, 3, 4, "NoForward")) {
		t.Fatal("identical retry accepted as a new fact")
	}
	if reg.Submit(Verdict{Round: 4, Kind: "NoForward", Accused: 7, Reporter: 3, Detail: "other"}) {
		t.Fatal("same-key report accepted as a new fact")
	}
	if got := reg.Count(7); got != 1 {
		t.Fatalf("count %d, want 1", got)
	}
	if got := m.Counter("pag_judicial_duplicates_total").Value(); got != 2 {
		t.Fatalf("duplicates %d, want 2", got)
	}
	// A different accuser, round or kind is fresh evidence.
	reg.Submit(fact(7, 5, 4, "NoForward"))
	reg.Submit(fact(7, 3, 5, "NoForward"))
	reg.Submit(fact(7, 3, 4, "Unresponsive"))
	if got := reg.Count(7); got != 4 {
		t.Fatalf("count %d, want 4", got)
	}
}

func TestRegistryCanonicalOrderIndependentOfSubmission(t *testing.T) {
	facts := []Verdict{
		fact(9, 2, 3, "B"), fact(1, 1, 1, "A"), fact(9, 1, 3, "B"),
		fact(9, 2, 3, "A"), fact(2, 8, 2, "C"),
	}
	a, b := NewRegistry(), NewRegistry()
	for _, f := range facts {
		a.Submit(f)
	}
	for i := len(facts) - 1; i >= 0; i-- {
		b.Submit(facts[i])
	}
	ra, rb := a.Records(), b.Records()
	if len(ra) != len(rb) {
		t.Fatalf("record counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Key != rb[i].Key {
			t.Fatalf("record %d differs: %v vs %v", i, ra[i].Key, rb[i].Key)
		}
	}
	for i := 1; i < len(ra); i++ {
		if !ra[i-1].Key.less(ra[i].Key) {
			t.Fatalf("records not in canonical order at %d: %v !< %v",
				i, ra[i-1].Key, ra[i].Key)
		}
	}
}

func TestRegistryConcurrentSubmit(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				// Every worker submits the same 100 facts: dedupe must
				// keep exactly one of each.
				reg.Submit(fact(model.NodeID(i%5+2), model.NodeID(i%3+10),
					model.Round(i), "K"))
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Len(); got != 100 {
		t.Fatalf("%d facts after concurrent duplicate submissions, want 100", got)
	}
}

func TestRegistryWindows(t *testing.T) {
	reg := NewRegistry()
	for r := model.Round(1); r <= 6; r++ {
		reg.Submit(fact(4, 2, r, "K"))
	}
	if got := reg.CountsInWindow(2, 4)[4]; got != 3 {
		t.Fatalf("window count %d, want 3", got)
	}
	if got := len(reg.Convicted(7)); got != 0 {
		t.Fatalf("convicted below threshold: %v", got)
	}
	if got := reg.Convicted(6)[4]; got != 6 {
		t.Fatalf("conviction count %d, want 6", got)
	}
}

func TestBenchJudgesOncePerConviction(t *testing.T) {
	reg := NewRegistry()
	bench := NewBench(Policy{ConvictionThreshold: 2, QuarantineRounds: 5})
	reg.Submit(fact(4, 2, 1, "K"))
	if got := bench.Judge(2, reg, nil); len(got) != 0 {
		t.Fatalf("judged below threshold: %v", got)
	}
	reg.Submit(fact(4, 3, 1, "K"))
	got := bench.Judge(2, reg, nil)
	if len(got) != 1 || got[0].Node != 4 || got[0].Verdicts != 2 ||
		got[0].QuarantineUntil != 7 {
		t.Fatalf("judgment %v", got)
	}
	// The tally is consumed: no re-judgment without fresh evidence.
	if got := bench.Judge(3, reg, nil); len(got) != 0 {
		t.Fatalf("re-judged consumed evidence: %v", got)
	}
	// One more fact is below the threshold again; two re-convict — the
	// recidivist path.
	reg.Submit(fact(4, 2, 8, "K"))
	if got := bench.Judge(9, reg, nil); len(got) != 0 {
		t.Fatalf("re-judged on one fresh fact: %v", got)
	}
	reg.Submit(fact(4, 3, 8, "K"))
	if got := bench.Judge(10, reg, nil); len(got) != 1 || got[0].Verdicts != 2 {
		t.Fatalf("recidivist not re-judged: %v", got)
	}
}

func TestBenchSkipAndOrder(t *testing.T) {
	reg := NewRegistry()
	bench := NewBench(Policy{ConvictionThreshold: 1, QuarantineRounds: 3})
	for _, id := range []model.NodeID{9, 3, 1, 5} {
		reg.Submit(fact(id, 2, 1, "K"))
	}
	got := bench.Judge(2, reg, func(id model.NodeID) bool { return id == 1 })
	if len(got) != 3 {
		t.Fatalf("judgments %v", got)
	}
	for i, want := range []model.NodeID{3, 5, 9} {
		if got[i].Node != want {
			t.Fatalf("judgment order %v, want ascending 3,5,9", got)
		}
	}
	// A skipped node's tally is not consumed: it is judged as soon as
	// the skip lifts.
	if got := bench.Judge(3, reg, nil); len(got) != 1 || got[0].Node != 1 {
		t.Fatalf("previously-skipped node not judged: %v", got)
	}
}

func TestPolicyEnabled(t *testing.T) {
	if (Policy{}).Enabled() {
		t.Fatal("zero policy must be reporting-only")
	}
	if !(Policy{ConvictionThreshold: 1}).Enabled() {
		t.Fatal("threshold 1 must arm the loop")
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Accused: 4, Accuser: 2, Round: 7, Kind: "NoForward"}
	want := fmt.Sprintf("%v NoForward against %v by %v",
		model.Round(7), model.NodeID(4), model.NodeID(2))
	if got := k.String(); got != want {
		t.Fatalf("Key.String: %q, want %q", got, want)
	}
}
