package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
)

// runBench runs the command in-process and returns its exit code, the
// final JSON line and the record line's metrics.
func runBench(t *testing.T, args ...string) (int, final, map[string]float64) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res final
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\nstdout:\n%s\nstderr:\n%s", err, out.String(), errOut.String())
	}
	var rec struct{ Metrics map[string]float64 }
	for _, l := range lines {
		if strings.HasPrefix(l, "record ") {
			if err := json.Unmarshal([]byte(strings.TrimPrefix(l, "record ")), &rec); err != nil {
				t.Fatalf("bad record line: %v", err)
			}
		}
	}
	if rec.Metrics == nil {
		t.Fatalf("no record line:\n%s", out.String())
	}
	return code, res, rec.Metrics
}

func TestCleanRunReportsNoFailures(t *testing.T) {
	code, res, m := runBench(t, "--workload", "bulk_tcp", "--seed", "7", "--seconds", "1", "--trace", "0")
	if code != 0 || !res.Correct || res.Failed != 0 || m["failed_frac"] != 0 {
		t.Fatalf("clean run: exit %d, correct %v, failed %d, failed_frac %v", code, res.Correct, res.Failed, m["failed_frac"])
	}
	for _, name := range []string{"allocs_per_op", "delivered_frac", "setup_s"} {
		if v, ok := res.Metrics[name]["value"].(float64); !ok || v <= 0 {
			t.Errorf("%s = %v, want a positive value", name, res.Metrics[name])
		}
	}
}

// Each injected fault must be caught by the delivery check: failed_frac
// above zero, a false "correct" and a nonzero exit code.
func TestInjectedFaultsFail(t *testing.T) {
	for _, fault := range []string{"dup", "corrupt", "reorder"} {
		t.Run(fault, func(t *testing.T) {
			code, res, m := runBench(t, "--workload", "bulk_tcp", "--seed", "7", "--seconds", "1", "--trace", "0", "--inject", fault)
			if code == 0 || res.Correct || res.Failed == 0 || m["failed_frac"] <= 0 {
				t.Fatalf("%s: exit %d, correct %v, failed %d, failed_frac %v", fault, code, res.Correct, res.Failed, m["failed_frac"])
			}
		})
	}
}

// A traced run reports every per-layer metric, with the invariant
// checker silent, and writes its spans under the build directory.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	code, res, _ := runBench(t, "--workload", "lossy_udp", "--seed", "3", "--seconds", "1", "--trace", "1")
	if code != 0 || !res.Correct {
		t.Fatalf("traced run: exit %d, correct %v, failed %d", code, res.Correct, res.Failed)
	}
	for _, name := range []string{"netchan.write_syscalls_per_op", "session.send_ns_per_op",
		"core.tx_self_ns_per_op", "flowcontrol.stall_frac", "packet.get_ns_per_op",
		"obs.trace_e2e_p50_us", "runtime.gc_cycles_per_kop", "trace.overhead_frac", "goodput_MBps", "cpu_us_per_op", "lat_p99_us"} {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("traced run lacks %s", name)
		}
	}
	if v := res.Metrics["obs.violations"]["value"]; v != 0.0 {
		t.Errorf("obs.violations = %v, want 0", v)
	}
	if v, _ := res.Metrics["flowcontrol.stall_frac"]["value"].(float64); v <= 0 {
		t.Errorf("flowcontrol.stall_frac = %v, want > 0 with a credit window", v)
	}
}

// The same seed gives the same size mix and loss pattern; another seed
// gives another.
func TestSeedDeterminesInputs(t *testing.T) {
	pattern := func(seed uint64) (sizes, drops []bool) {
		var armed atomic.Bool
		armed.Store(true)
		l := &lossSender{key: mix(seed ^ mix(1)), armed: &armed}
		for i := uint64(0); i < 4096; i++ {
			sizes = append(sizes, bulkSize(seed, i) == 64)
			drops = append(drops, l.drop())
		}
		return sizes, drops
	}
	s1, d1 := pattern(1)
	s1b, d1b := pattern(1)
	s2, d2 := pattern(2)
	eq := func(a, b []bool) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !eq(s1, s1b) || !eq(d1, d1b) {
		t.Fatal("same seed, different inputs")
	}
	if eq(s1, s2) || eq(d1, d2) {
		t.Fatal("different seeds, same inputs")
	}
	small, dropped := 0, 0
	for i := range s1 {
		if s1[i] {
			small++
		}
		if d1[i] {
			dropped++
		}
	}
	if small < 1900 || small > 2200 || dropped < 20 || dropped > 65 {
		t.Fatalf("size mix %d/4096 small, %d/4096 dropped; want about half and 1%%", small, dropped)
	}
}
