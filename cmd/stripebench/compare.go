package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"stripe/internal/harness"
)

// regressionThreshold is how much worse a benchmark may get before the
// comparison fails: 15% covers scheduler jitter on shared CI runners
// while still catching a real hot-path regression (an accidental
// allocation or lock shows up as 2-10x, not 1.15x).
const regressionThreshold = 0.15

// allocFreeBar is the allocs/op level below which a row counts as
// allocation-free: a per-op mean under half an allocation is amortized
// background (a pool refill, a rare control packet), while one at or
// above it means some op allocates. Crossing it from below is a
// regression whatever the relative change, which also covers rows
// whose baseline is exactly zero.
const allocFreeBar = 0.5

// regression is one benchmark metric that moved past the threshold in
// the wrong direction between two -json records.
type regression struct {
	Name   string  // benchmark name
	Metric string  // "ns/op", "MB/s" or "allocs/op"
	Old    float64 // baseline value
	New    float64 // current value
	Delta  float64 // fractional change, positive = worse
}

// comparePerf diffs the benchmark sets of two -json records. Benchmarks
// present on only one side are ignored (suites evolve); a metric whose
// baseline is zero cannot be compared and is skipped, except allocs/op,
// where leaving the allocation-free range (allocFreeBar) regresses.
func comparePerf(old, cur jsonRecord, threshold float64) []regression {
	base := make(map[string]harness.PerfBench, len(old.Perf.Benches))
	for _, b := range old.Perf.Benches {
		base[b.Name] = b
	}
	var regs []regression
	for _, b := range cur.Perf.Benches {
		o, ok := base[b.Name]
		if !ok {
			continue
		}
		// ns/op: higher is worse.
		if o.NsPerOp > 0 {
			if d := (b.NsPerOp - o.NsPerOp) / o.NsPerOp; d > threshold {
				regs = append(regs, regression{b.Name, "ns/op", o.NsPerOp, b.NsPerOp, d})
			}
		}
		// MB/s: lower is worse.
		if o.MBPerS > 0 && b.MBPerS > 0 {
			if d := (o.MBPerS - b.MBPerS) / o.MBPerS; d > threshold {
				regs = append(regs, regression{b.Name, "MB/s", o.MBPerS, b.MBPerS, d})
			}
		}
		// allocs/op: higher is worse.
		if o.AllocsPerOp < allocFreeBar && b.AllocsPerOp >= allocFreeBar {
			d := math.Inf(1)
			if o.AllocsPerOp > 0 {
				d = (b.AllocsPerOp - o.AllocsPerOp) / o.AllocsPerOp
			}
			regs = append(regs, regression{b.Name, "allocs/op", o.AllocsPerOp, b.AllocsPerOp, d})
		} else if o.AllocsPerOp > 0 {
			if d := (b.AllocsPerOp - o.AllocsPerOp) / o.AllocsPerOp; d > threshold {
				regs = append(regs, regression{b.Name, "allocs/op", o.AllocsPerOp, b.AllocsPerOp, d})
			}
		}
	}
	return regs
}

// runCompare loads two -json perf records and prints the verdict.
// It returns the process exit code: 0 when every shared benchmark is
// within the threshold, 1 when any regressed.
func runCompare(w io.Writer, oldPath, newPath string, threshold float64) int {
	old, err := loadRecord(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stripebench: %v\n", err)
		return 2
	}
	cur, err := loadRecord(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stripebench: %v\n", err)
		return 2
	}
	if old.Quick != cur.Quick {
		fmt.Fprintf(w, "note: comparing a quick record against a full one; thresholds still apply\n")
	}
	regs := comparePerf(old, cur, threshold)
	if len(regs) == 0 {
		fmt.Fprintf(w, "perf compare: %d benchmark(s) within %.0f%% of baseline\n",
			len(cur.Perf.Benches), threshold*100)
		return 0
	}
	for _, r := range regs {
		fmt.Fprintf(w, "REGRESSION %-28s %-6s %12.1f -> %12.1f  (%+.1f%%)\n",
			r.Name, r.Metric, r.Old, r.New, r.Delta*100)
	}
	fmt.Fprintf(w, "perf compare: %d regression(s) beyond %.0f%%\n", len(regs), threshold*100)
	return 1
}

func loadRecord(path string) (jsonRecord, error) {
	var rec jsonRecord
	b, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}
