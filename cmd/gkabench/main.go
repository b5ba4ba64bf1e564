// Command gkabench regenerates the tables and figure of the paper's
// evaluation from instrumented protocol executions.
//
// Usage:
//
//	gkabench -all                      # everything at default parameters
//	gkabench -all -json                # same, as machine-readable JSON
//	gkabench -table 1 -n 10            # Table 1 at group size 10
//	gkabench -table 4 -n 100 -m 20 -ld 20
//	gkabench -table 5 -n 100 -m 20 -ld 20   # the paper's exact setting
//	gkabench -figure 1 -measured 50    # measure counters up to n=50
//	gkabench -accel -parallel 4        # acceleration-layer benchmark, 4 workers
//	gkabench -groups 64                # multi-group serve throughput ladder (1,4,16,64)
//
// With -json the command emits one JSON document on stdout: the runner
// fingerprint (GOMAXPROCS, Go version, -parallel), the run parameters
// and, per regenerated artifact, its name, wall-clock cost and rendered
// output — so benchmark trajectories (BENCH_*.json) can be captured
// mechanically across revisions and diffed. The -accel artifact
// additionally emits per-op serial/accelerated timings whose speedup
// ratios cmd/benchgate compares against the committed BENCH_BASELINE.json
// in CI.
//
// Tables 4 and 5 at the paper's n=100 execute tens of thousands of real
// signature verifications for the BD baseline and take a minute or two;
// the default n=40 keeps runs snappy while preserving every qualitative
// conclusion.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"idgka/internal/analytic"
	"idgka/internal/experiments"
	"idgka/internal/serve"
)

// record is one regenerated artifact in -json mode.
type record struct {
	Name      string  `json:"name"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Output    string  `json:"output"`
}

// document is the top-level -json payload. Schema 2 adds the runner
// fingerprint (GOMAXPROCS, Go version, the -parallel setting) and the
// tracked-op map of the acceleration benchmark, which the CI
// bench-regression gate (cmd/benchgate) compares against the committed
// BENCH_BASELINE.json.
type document struct {
	Schema     int                           `json:"schema"`
	GoVersion  string                        `json:"go_version"`
	GoMaxProcs int                           `json:"gomaxprocs"`
	Parallel   int                           `json:"parallel"`
	Params     map[string]int                `json:"params"`
	Results    []record                      `json:"results"`
	Ops        map[string]experiments.OpStat `json:"ops,omitempty"`
	// MultiGroup is the -groups serve-layer throughput ladder (additive;
	// cmd/benchgate ignores it, so the schema number is unchanged).
	MultiGroup []serve.GroupStat `json:"multi_group,omitempty"`
	TotalMS    float64           `json:"total_ms"`
}

// groupLadder builds the rung counts for -groups N: powers of four up to
// and always including N.
func groupLadder(n int) []int {
	var out []int
	for c := 1; c < n; c *= 4 {
		out = append(out, c)
	}
	return append(out, n)
}

// renderGroups formats the ladder as a text table.
func renderGroups(stats []serve.GroupStat) string {
	var b strings.Builder
	if len(stats) > 0 {
		fmt.Fprintf(&b, "Multi-group serve throughput (pool %d, ring %d, GOMAXPROCS %d)\n",
			stats[0].Pool, stats[0].GroupSize, runtime.GOMAXPROCS(0))
	}
	fmt.Fprintf(&b, "%8s  %14s  %12s  %14s  %12s\n",
		"groups", "establish/s", "est ms", "rekey/s", "rekey ms")
	for _, s := range stats {
		fmt.Fprintf(&b, "%8d  %14.1f  %12.1f  %14.1f  %12.1f\n",
			s.Groups, s.EstablishPerSec, s.EstablishMS, s.RekeyPerSec, s.RekeyMS)
	}
	return strings.TrimRight(b.String(), "\n")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gkabench: ")
	table := flag.Int("table", 0, "regenerate one table (1-5)")
	figure := flag.Int("figure", 0, "regenerate one figure (1)")
	all := flag.Bool("all", false, "regenerate everything")
	n := flag.Int("n", 40, "current group size")
	m := flag.Int("m", 20, "merging group size")
	ld := flag.Int("ld", 20, "leaving/partitioned users")
	measured := flag.Int("measured", 10, "largest n measured (not extrapolated) in Figure 1")
	ablations := flag.Bool("ablations", false, "also run the design-choice ablations")
	accel := flag.Bool("accel", false, "run the crypto acceleration-layer benchmark (tracked by the CI bench gate)")
	groups := flag.Int("groups", 0, "multi-group serve-layer throughput ladder up to N concurrent groups (0 = skip)")
	parallel := flag.Int("parallel", 0, "worker-pool size for accelerated runs (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit results as a JSON document on stdout")
	flag.Parse()

	if !*all && *table == 0 && *figure == 0 && !*ablations && !*accel && *groups <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	env, err := experiments.NewEnv()
	if err != nil {
		log.Fatalf("environment: %v", err)
	}
	doc := document{
		Schema:     2,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Parallel:   workers,
		Params: map[string]int{
			"n": *n, "m": *m, "ld": *ld, "measured": *measured,
		},
	}
	begin := time.Now()
	run := func(name string, f func() (string, error)) {
		start := time.Now()
		out, err := f()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		elapsed := time.Since(start)
		doc.Results = append(doc.Results, record{
			Name:      name,
			ElapsedMS: float64(elapsed.Microseconds()) / 1000,
			Output:    out,
		})
		if !*jsonOut {
			fmt.Println(out)
			fmt.Printf("[%s regenerated in %v]\n\n", name, elapsed.Round(time.Millisecond))
		}
	}

	if *all || *table == 1 {
		run("Table 1", func() (string, error) { return env.Table1(*n) })
	}
	if *all || *table == 2 {
		run("Table 2", func() (string, error) { return experiments.Table2(), nil })
	}
	if *all || *table == 3 {
		run("Table 3", func() (string, error) { return experiments.Table3(), nil })
	}
	if *all || *figure == 1 {
		run("Figure 1", func() (string, error) { return env.Figure1(*measured) })
	}
	if *all || *table == 4 {
		run("Table 4", func() (string, error) { return env.Table4(*n, *m, *ld) })
	}
	if *all || *table == 5 {
		run("Table 5", func() (string, error) {
			return env.Table5(analytic.Table5Params{N: *n, M: *m, Ld: *ld})
		})
	}
	if *all || *accel {
		run(fmt.Sprintf("Acceleration layer (n=%d)", experiments.AccelGroupSize), func() (string, error) {
			out, ops, err := env.AccelBench(experiments.AccelGroupSize, workers)
			if err != nil {
				return "", err
			}
			doc.Ops = ops
			return out, nil
		})
	}
	if *groups > 0 {
		run(fmt.Sprintf("Multi-group serve throughput (up to %d groups)", *groups), func() (string, error) {
			stats, err := serve.BenchmarkGroups(groupLadder(*groups), serve.BenchOptions{
				Accel:   *accel,
				Workers: workers,
			})
			if err != nil {
				return "", err
			}
			doc.MultiGroup = stats
			return renderGroups(stats), nil
		})
	}
	if *all || *ablations {
		run("Ablation: batch verification", func() (string, error) {
			return experiments.AblationBatchVerify([]int{10, 50, 100, 500}), nil
		})
		run("Ablation: strict nonce refresh", func() (string, error) {
			return env.AblationStrictNonces(*n, 1)
		})
		run("Related work (ING, GDH.2)", func() (string, error) {
			return env.RelatedWork(min(*n, 20))
		})
	}

	if *jsonOut {
		doc.TotalMS = float64(time.Since(begin).Microseconds()) / 1000
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			log.Fatalf("encoding: %v", err)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
