// Command stripebench regenerates every table and figure of the
// paper's evaluation. Run it with no arguments for the full suite, or
// name experiments with -exp:
//
//	stripebench                  # everything, full scale
//	stripebench -exp fig15       # one experiment
//	stripebench -exp loss,video  # several
//	stripebench -list            # what exists
//	stripebench -quick           # reduced scale (seconds, not minutes)
//	stripebench -json            # machine-readable perf record on stdout
//	stripebench -compare old.json new.json
//	                             # diff two -json records, exit 1 on a
//	                             # >15% ns/op, MB/s or allocs/op regression
//	                             # or an allocs/op row reaching 0.5
//
// -json runs the hot-path perf suite (ns/op, MB/s, lifecycle latency
// quantiles) and emits one JSON document, plus the structured tables of
// any experiments named with -exp. CI archives the output per commit so
// performance has a diffable trajectory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"stripe/internal/harness"
	"stripe/internal/stats"
)

func main() {
	var (
		exp     = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		list    = flag.Bool("list", false, "list experiments and exit")
		quick   = flag.Bool("quick", false, "reduced-scale runs")
		seed    = flag.Int64("seed", 1, "experiment seed")
		jsonOut = flag.Bool("json", false, "emit a machine-readable JSON perf record instead of tables")
		compare = flag.Bool("compare", false, "compare two -json records (old.json new.json) and exit non-zero on a >15% regression or an allocs/op row reaching 0.5")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: stripebench -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), regressionThreshold))
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	var todo []harness.Experiment
	if *exp == "" {
		if !*jsonOut { // -json with no -exp runs only the perf suite
			todo = harness.All()
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			e, ok := harness.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "stripebench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	cfg := harness.Config{Quick: *quick, Seed: *seed}
	if *jsonOut {
		out := jsonRecord{
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			Quick:     *quick,
			Seed:      *seed,
			Perf:      harness.RunPerf(cfg),
		}
		for _, e := range todo {
			start := time.Now()
			r := e.Run(cfg)
			out.Experiments = append(out.Experiments, jsonExperiment{
				ID:      e.ID,
				Title:   e.Title,
				Seconds: time.Since(start).Seconds(),
				Tables:  r.Tables,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "stripebench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for _, e := range todo {
		start := time.Now()
		fmt.Printf("== %s: %s\n", e.ID, e.Title)
		r := e.Run(cfg)
		fmt.Println(r.Text)
		fmt.Printf("-- %s finished in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

// jsonRecord is the -json output document.
type jsonRecord struct {
	GoVersion   string             `json:"go_version"`
	GOOS        string             `json:"goos"`
	GOARCH      string             `json:"goarch"`
	Quick       bool               `json:"quick"`
	Seed        int64              `json:"seed"`
	Perf        harness.PerfReport `json:"perf"`
	Experiments []jsonExperiment   `json:"experiments,omitempty"`
}

type jsonExperiment struct {
	ID      string         `json:"id"`
	Title   string         `json:"title"`
	Seconds float64        `json:"seconds"`
	Tables  []*stats.Table `json:"tables,omitempty"`
}
