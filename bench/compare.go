package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// iqrShare is the distance between the first and third quartile as a
// share of the median, the quartiles taken as Python's
// statistics.quantiles(values, n=4) takes them (so three repeats give
// their full range).
func iqrShare(values []float64) float64 {
	n := len(values)
	med := median(values)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / med
}

// verdict applies the choosing-metrics rule to one metric on one
// workload: ok when the change's median is no worse than the parent's by
// more than the bound; unresolved when either side's spread is wider than
// the bound, unless every run of the change reads better than every run
// of the parent.
func verdict(def metricDef, parent, change stat) (worse float64, status string) {
	if parent.Median != 0 {
		worse = (change.Median - parent.Median) / parent.Median
	}
	best, worst := change.Max, parent.Min // lower is better: change's worst run against parent's best
	if def.Better == higher {
		worse = -worse
		best, worst = -change.Min, -parent.Max
	}
	switch {
	case best < worst:
		return worse, "ok"
	case max(iqrShare(parent.Values), iqrShare(change.Values)) > def.Bound:
		return worse, "unresolved"
	case worse > def.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := &resultSet{}
	if err := json.Unmarshal(data, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// compareFiles prints, per workload and end-to-end metric, the two
// medians, how much worse the second is, and the verdict. It exits 1 if
// any row regressed.
func compareFiles(parentPath, changePath string, stdout, stderr io.Writer) int {
	parent, err := readSet(parentPath)
	if err == nil {
		var change *resultSet
		if change, err = readSet(changePath); err == nil {
			return compareSets(parent, change, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareSets(parent, change *resultSet, w io.Writer) int {
	code := 0
	byName := map[string]*workloadResult{}
	for _, wr := range change.Workloads {
		byName[wr.Name] = wr
	}
	fmt.Fprintf(w, "%-16s %-20s %12s %12s %8s %6s  %s\n", "workload", "metric", "parent", "change", "worse", "bound", "verdict")
	for _, p := range parent.Workloads {
		c := byName[p.Name]
		if c == nil || p.EndToEnd == nil || c.EndToEnd == nil {
			continue
		}
		for _, def := range endToEnd {
			worse, status := verdict(def, p.EndToEnd[def.Name], c.EndToEnd[def.Name])
			if status == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-20s %12.4f %12.4f %+7.2f%% %5.1f%%  %s\n", p.Name, def.Name,
				p.EndToEnd[def.Name].Median, c.EndToEnd[def.Name].Median, 100*worse, 100*def.Bound, status)
		}
		// Same seed, same rounds, MemNet: the run is a pure function of
		// its inputs, so a changed fingerprint is a changed behaviour.
		if w0, ok := workloadByName(p.Name); ok && !w0.tcp && parent.Seed == change.Seed &&
			len(p.Runs) > 0 && len(c.Runs) > 0 && p.Runs[0].Rounds == c.Runs[0].Rounds {
			same := "identical"
			if p.Runs[0].Fingerprint != c.Runs[0].Fingerprint {
				same = "CHANGED"
			}
			fmt.Fprintf(w, "%-16s %-20s %s\n", p.Name, "fingerprint", same)
		}
	}
	return code
}
