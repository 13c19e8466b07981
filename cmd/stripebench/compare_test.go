package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stripe/internal/harness"
)

func record(benches ...harness.PerfBench) jsonRecord {
	return jsonRecord{Perf: harness.PerfReport{Benches: benches}}
}

func TestComparePerf(t *testing.T) {
	old := record(
		harness.PerfBench{Name: "striper_send", NsPerOp: 100, MBPerS: 1000},
		harness.PerfBench{Name: "reseq_drain", NsPerOp: 200, MBPerS: 500},
		harness.PerfBench{Name: "retired", NsPerOp: 50},
	)

	t.Run("within threshold", func(t *testing.T) {
		cur := record(
			harness.PerfBench{Name: "striper_send", NsPerOp: 110, MBPerS: 900},
			harness.PerfBench{Name: "reseq_drain", NsPerOp: 180, MBPerS: 560},
			harness.PerfBench{Name: "brand_new", NsPerOp: 9999}, // no baseline: ignored
		)
		if regs := comparePerf(old, cur, 0.15); len(regs) != 0 {
			t.Fatalf("unexpected regressions: %+v", regs)
		}
	})

	t.Run("nsop regression", func(t *testing.T) {
		cur := record(harness.PerfBench{Name: "striper_send", NsPerOp: 120, MBPerS: 1000})
		regs := comparePerf(old, cur, 0.15)
		if len(regs) != 1 || regs[0].Metric != "ns/op" || regs[0].Name != "striper_send" {
			t.Fatalf("want one ns/op regression, got %+v", regs)
		}
	})

	t.Run("throughput regression", func(t *testing.T) {
		cur := record(harness.PerfBench{Name: "reseq_drain", NsPerOp: 200, MBPerS: 400})
		regs := comparePerf(old, cur, 0.15)
		if len(regs) != 1 || regs[0].Metric != "MB/s" {
			t.Fatalf("want one MB/s regression, got %+v", regs)
		}
	})

	t.Run("allocs leave the allocation-free range", func(t *testing.T) {
		base := record(
			harness.PerfBench{Name: "zero", NsPerOp: 100},
			harness.PerfBench{Name: "amortized", NsPerOp: 100, AllocsPerOp: 0.2},
		)
		for _, tc := range []struct {
			name   string
			allocs float64
			regs   int
		}{
			{"zero", 0.4, 0},      // still below the bar
			{"zero", 0.5, 1},      // reaches it from a zero baseline
			{"zero", 3, 1},        // an allocating op
			{"amortized", 0.2, 0}, // unchanged
			{"amortized", 0.6, 1}, // crosses the bar
		} {
			cur := record(harness.PerfBench{Name: tc.name, NsPerOp: 100, AllocsPerOp: tc.allocs})
			regs := comparePerf(base, cur, 0.15)
			if len(regs) != tc.regs || (tc.regs == 1 && regs[0].Metric != "allocs/op") {
				t.Errorf("%s at %.1f allocs/op: want %d allocs/op regression(s), got %+v", tc.name, tc.allocs, tc.regs, regs)
			}
		}
	})

	t.Run("allocs regression", func(t *testing.T) {
		base := record(harness.PerfBench{Name: "alloc", NsPerOp: 100, AllocsPerOp: 4})
		for _, tc := range []struct {
			allocs float64
			regs   int
		}{
			{4.5, 0}, // +12.5%: within the threshold
			{5, 1},   // +25%
			{2, 0},   // fewer allocations are an improvement
		} {
			cur := record(harness.PerfBench{Name: "alloc", NsPerOp: 100, AllocsPerOp: tc.allocs})
			regs := comparePerf(base, cur, 0.15)
			if len(regs) != tc.regs || (tc.regs == 1 && regs[0].Metric != "allocs/op") {
				t.Errorf("4 -> %.1f allocs/op: want %d allocs/op regression(s), got %+v", tc.allocs, tc.regs, regs)
			}
		}
	})

	t.Run("zero baseline skipped", func(t *testing.T) {
		// "retired" has no MB/s baseline; a new MB/s value must not
		// divide by zero or fabricate a regression.
		cur := record(harness.PerfBench{Name: "retired", NsPerOp: 55, MBPerS: 123})
		if regs := comparePerf(old, cur, 0.15); len(regs) != 0 {
			t.Fatalf("unexpected regressions: %+v", regs)
		}
	})
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rec jsonRecord) string {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old.json", record(harness.PerfBench{Name: "x", NsPerOp: 100, MBPerS: 100}))
	samePath := write("same.json", record(harness.PerfBench{Name: "x", NsPerOp: 101, MBPerS: 99}))
	badPath := write("bad.json", record(harness.PerfBench{Name: "x", NsPerOp: 300, MBPerS: 30}))

	var out strings.Builder
	if code := runCompare(&out, oldPath, samePath, regressionThreshold); code != 0 {
		t.Fatalf("clean compare exited %d: %s", code, out.String())
	}
	out.Reset()
	if code := runCompare(&out, oldPath, badPath, regressionThreshold); code != 1 {
		t.Fatalf("regressed compare exited %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("regression not reported: %s", out.String())
	}
	if code := runCompare(&out, filepath.Join(dir, "missing.json"), samePath, regressionThreshold); code != 2 {
		t.Fatalf("missing baseline exited %d", code)
	}
	notJSON := filepath.Join(dir, "not.json")
	if err := os.WriteFile(notJSON, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runCompare(&out, notJSON, samePath, regressionThreshold); code != 2 {
		t.Fatalf("corrupt baseline exited %d", code)
	}
}
