package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// declaration is the part of BENCHMARK.json the smoke test checks.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke builds the benchmark, runs every declared workload for one
// second in both modes with the short ladder, and checks that the last
// output line passes the correctness checks and carries exactly the
// metrics BENCHMARK.json declares for the mode, each with its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl declaration
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, wl := range decl.Workloads {
		if _, err := findWorkload(wl.Name); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []struct {
			trace string
			want  []declaredMetric
		}{{"0", decl.EndToEnd}, {"1", decl.PerLayer}} {
			t.Run(wl.Name+"/trace="+mode.trace, func(t *testing.T) {
				cmd := exec.Command(bin, "--workload", wl.Name, "--seed", "7", "--seconds", "1",
					"--trace", mode.trace, "--short", "--out", t.TempDir())
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("run: %v\n%s\n%s", err, out, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s: unit %q, declared %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s: value %v", m.Name, got.Value)
					case mode.trace == "0" && got.Value <= 0:
						t.Errorf("%s: end-to-end value %v is not positive", m.Name, got.Value)
					}
				}
			})
		}
	}
}
