package main

// compare applies the repository's rule for comparing two sets of runs:
// a metric improved when the new side wins at least nine tenths of ten or
// more pairs and the medians differ by more than the base side's quartile
// spread; it regressed when its median is worse than the base median by
// more than the metric's bound; it is unresolved when the spread of either
// side is wider than the bound, unless every new run reads better than
// every base run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// loadRecords reads the runs in the given --out files, grouped by workload
// in file and line order.
func loadRecords(paths []string) (map[string][]record, []string, error) {
	byWorkload := make(map[string][]record)
	var order []string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		for dec.More() {
			var r record
			if err := dec.Decode(&r); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", p, err)
			}
			if _, seen := byWorkload[r.Workload]; !seen {
				order = append(order, r.Workload)
			}
			byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
		}
	}
	return byWorkload, order, nil
}

// verdict classifies the change from base values a to new values b.
func verdict(d metricDef, a, b []float64) (string, float64) {
	lower := d.Better == "lower"
	better := func(x, y float64) bool { // x reads better than y
		if lower {
			return x < y
		}
		return x > y
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	win := float64(wins) / float64(max(pairs, 1))
	sa, sb := summarize(a), summarize(b)
	gain := sa.Median - sb.Median
	if !lower {
		gain = -gain
	}
	if pairs >= 10 && win >= 0.9 && gain > sa.Q3-sa.Q1 {
		return "improved", win
	}
	if d.Bound == 0 {
		return "no bound", win
	}
	if math.Max(sa.spread(), sb.spread()) > d.Bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				allBetter = allBetter && better(x, y)
			}
		}
		if allBetter {
			return "within bound", win
		}
		return "unresolved", win
	}
	if -gain > d.Bound*math.Abs(sa.Median) {
		return "regressed", win
	}
	return "within bound", win
}

func errorRate(rs []record) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

// compareMain prints one verdict per workload and metric and returns 1 when
// any metric regressed or the error rate rose, 2 on a usage error.
func compareMain(args []string, w io.Writer) int {
	sep := slices.Index(args, "--")
	if sep < 1 || sep == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: beastbench compare BASE.jsonl... -- NEW.jsonl...")
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "beastbench compare:", err)
		return 2
	}
	base, order, err := loadRecords(args[:sep])
	var neu map[string][]record
	if err == nil {
		neu, _, err = loadRecords(args[sep+1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "beastbench compare:", err)
		return 2
	}
	return compareSets(w, spec, base, neu, order)
}

func compareSets(w io.Writer, spec *benchSpec, base, neu map[string][]record, order []string) int {
	status := 0
	defs := append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...)
	fmt.Fprintf(w, "%-14s %-36s %12s %12s %12s %12s %6s  %s\n",
		"workload", "metric", "base_med", "base_iqr", "new_med", "new_iqr", "win", "verdict")
	for _, wl := range order {
		a, b := base[wl], neu[wl]
		if len(b) == 0 {
			fmt.Fprintf(w, "%-14s missing from the new set\n", wl)
			status = 1
			continue
		}
		for _, d := range defs {
			av, bv := metricValues(a, d.Name), metricValues(b, d.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v, win := verdict(d, av, bv)
			sa, sb := summarize(av), summarize(bv)
			fmt.Fprintf(w, "%-14s %-36s %12.6g %12.6g %12.6g %12.6g %6.2f  %s\n",
				wl, d.Name, sa.Median, sa.Q3-sa.Q1, sb.Median, sb.Q3-sb.Q1, win, v)
			if v == "regressed" {
				status = 1
			}
		}
		ea, eb := errorRate(a), errorRate(b)
		fmt.Fprintf(w, "%-14s %-36s %12.6g %12s %12.6g\n", wl, "error_rate", ea, "", eb)
		if eb > ea {
			fmt.Fprintf(w, "%-14s error rate rose\n", wl)
			status = 1
		}
	}
	return status
}

func metricValues(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
