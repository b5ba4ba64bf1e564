// Command perfbench is the repository's keying benchmark. It drives one
// of three fixed workloads through the public APIs a deployment uses
// (idgka Authority/Member/Session, serve.Host/Run, transport.Hub/Router),
// checks every keying operation, and prints its metrics. With --trace 0
// it prints the end-to-end metrics; with --trace 1 it runs a traced
// window, the layer ladder and the arithmetic primitives and prints the
// per-layer metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload tcp-small-groups --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and how to read the trace.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"idgka/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	w       *workload
	seed    int64
	seconds int
	trace   bool
	short   bool
	out     string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: tcp-small-groups, loopback-large-ring or tcp-membership-churn")
	seed := fs.Int64("seed", 1, "seed for ring rotations and the churn schedule")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer metrics")
	setupOnly := fs.Bool("setup-only", false, "build the workload's deployment, print \"ready\", tear it down (times set-up in a fresh process)")
	short := fs.Bool("short", false, "fewer set-up samples and ladder repeats (smoke test)")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench", "results"), "directory for the report, trace and meter files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *setupOnly {
		return setupChild(w, *seed, stdout, stderr)
	}
	o := options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, short: *short, out: *out}
	res, err := measure(o, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fingerprint identifies the run in every output.
type fingerprint struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func newFingerprint(o options) fingerprint {
	return fingerprint{
		Workload:   o.w.name,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// setupChild is the --setup-only mode: the parent times this process from
// its start to the "ready" line.
func setupChild(w *workload, seed int64, stdout, stderr io.Writer) int {
	b, err := setup(w, seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: setup: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	b.close()
	return 0
}

// setupSamples times k fresh processes from their start to the end of
// their set-up, one after another, so one-time process costs (parameter
// tables, the first member's precomputation) count in every sample.
func setupSamples(o options, k int, stderr io.Writer) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < k; i++ {
		cmd := exec.Command(exe, "--setup-only", "--workload", o.w.name, "--seed", fmt.Sprint(o.seed))
		cmd.Stderr = stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, _ := bufio.NewReader(pipe).ReadString('\n')
		elapsed := time.Since(t0)
		_, _ = io.Copy(io.Discard, pipe)
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		if strings.TrimSpace(line) != "ready" {
			return nil, errors.New("set-up process did not report ready")
		}
		out = append(out, elapsed.Seconds())
	}
	return out, nil
}

// runWindow measures one window of the workload's loop.
func (b *bench) runWindow(d time.Duration) *window {
	if b.w.inflight > 0 {
		return b.runClosed(d)
	}
	return b.runOpen(d)
}

func measure(o options, stdout, stderr io.Writer) (*result, error) {
	fp := newFingerprint(o)
	fpLine, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "perfbench %s\n", fpLine)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	if o.trace {
		return measureTraced(o, fp, stdout)
	}
	k := 9
	if o.short {
		k = 2
	}
	samples, err := setupSamples(o, k, stderr)
	if err != nil {
		return nil, err
	}
	// A window during which the hypervisor stole more than quietSteal of
	// the vCPUs' time is measured again on a fresh set-up, up to
	// maxAttempts windows, and the least-stolen one is reported. The
	// choice never looks at the results; the violations and failures of
	// every attempt count.
	const (
		maxAttempts = 3
		quietSteal  = 0.03
	)
	var win *window
	var attempts []map[string]any
	var violations []string
	attempted, failed := 0, 0
	for len(attempts) < maxAttempts {
		b, err := setup(o.w, o.seed)
		if err != nil {
			return nil, err
		}
		w := b.runWindow(time.Duration(o.seconds) * time.Second)
		b.close()
		attempts = append(attempts, windowReport(w))
		violations = append(violations, w.violations...)
		attempted += w.attempted
		failed += w.failed
		if win == nil || w.steal < win.steal {
			win = w
		}
		if w.steal <= quietSteal {
			break
		}
		debug.FreeOSMemory()
	}

	e2e := endToEnd(win, samples, attempted, failed)
	if msg := checkMeters(o, win); msg != "" {
		violations = append(violations, msg)
	}
	rep := map[string]any{
		"fingerprint":     fp,
		"setup_samples_s": samples,
		"window":          windowReport(win),
		"attempts":        attempts,
		"metrics":         e2e.all,
		"violations":      violations,
	}
	path, err := writeJSON(o.out, fmt.Sprintf("%s-s%d-t0.json", o.w.name, o.seed), rep)
	if err != nil {
		return nil, err
	}
	printMetrics(stdout, e2e.all, e2e.order)
	fmt.Fprintf(stdout, "report: %s\n", path)
	for _, v := range violations {
		fmt.Fprintf(stdout, "VIOLATION: %s\n", v)
	}
	if len(attempts) > 1 {
		fmt.Fprintf(stdout, "windows measured: %d (steal %.3f in the reported one)\n", len(attempts), win.steal)
	}
	return &result{Correct: len(violations) == 0, Attempted: attempted, Failed: failed, Metrics: e2e.declared}, nil
}

// measureTraced is the --trace 1 run: an untraced quarter window, a
// traced half window, a second untraced quarter window (the two bracket
// the traced one, so heap growth over the run does not bias the overhead
// estimate), then the ladder and the primitives at the workload's ring
// size.
func measureTraced(o options, fp fingerprint, stdout io.Writer) (*result, error) {
	b, err := setup(o.w, o.seed)
	if err != nil {
		return nil, err
	}
	d := time.Duration(o.seconds) * time.Second
	before := b.runWindow(d / 4)
	tr := newTracer()
	b.s.tr.Store(tr)
	traced := b.runWindow(d / 2)
	qd := metrics.NewHistogram("serve_queue_delay_ms")
	queueP50, queueP90 := qd.Quantile(0.5), qd.Quantile(0.9)
	b.s.tr.Store(nil)
	tr.close()
	after := b.runWindow(d / 4)
	b.close()

	claimsPerBatch := 0
	if dv := traced.stats1.VerifyBatches - traced.stats0.VerifyBatches; dv > 0 {
		claimsPerBatch = int(float64(traced.stats1.VerifyClaims-traced.stats0.VerifyClaims)/float64(dv) + 0.5)
	}
	rows, es, err := runLadder(o.w, b.auth, o.w.ring, o.seed, o.short, tr)
	if err != nil {
		return nil, err
	}
	prims, err := primitives(o.w.ring, claimsPerBatch, o.short)
	if err != nil {
		return nil, err
	}
	pl := perLayer(o.w, tr, before, traced, after, queueP50, queueP90, rows, es, prims)

	violations := slices.Concat(before.violations, traced.violations, after.violations)
	if msg := checkMeters(o, traced); msg != "" {
		violations = append(violations, msg)
	}
	tracePath, err := writeTrace(filepath.Join(o.out, o.w.name+".trace.json"), map[string]any{
		"fingerprint": fp,
		"self_time":   tr.selfTimes(),
		"ladder":      rows,
		"primitives":  prims,
		"span_fields": []string{"id", "parent", "name", "start_us", "end_us"},
	}, tr)
	if err != nil {
		return nil, err
	}
	rep := map[string]any{
		"fingerprint":   fp,
		"window_before": windowReport(before),
		"window_traced": windowReport(traced),
		"window_after":  windowReport(after),
		"metrics":       pl.all,
		"ladder":        rows,
		"violations":    violations,
	}
	path, err := writeJSON(o.out, fmt.Sprintf("%s-s%d-t1.json", o.w.name, o.seed), rep)
	if err != nil {
		return nil, err
	}
	printMetrics(stdout, pl.all, pl.order)
	for _, r := range rows {
		fmt.Fprintf(stdout, "ladder %-6s n=%-3d median %9.3f ms  tax %9.3f ms  allocs/op %9.0f  tax %8.0f\n",
			r.Layer, r.Ring, r.MedianMS, r.TaxMS, r.AllocsPerOp, r.TaxAllocs)
	}
	fmt.Fprintf(stdout, "report: %s\ntrace: %s\n", path, tracePath)
	for _, v := range violations {
		fmt.Fprintf(stdout, "VIOLATION: %s\n", v)
	}
	return &result{Correct: len(violations) == 0, Attempted: traced.attempted, Failed: traced.failed, Metrics: pl.all}, nil
}

func printMetrics(w io.Writer, m map[string]metric, order []string) {
	for _, name := range order {
		v, ok := m[name]
		if !ok {
			fmt.Fprintf(w, "%-40s %s\n", name, "n/a")
			continue
		}
		fmt.Fprintf(w, "%-40s %.6g %s\n", name, v.Value, v.Unit)
	}
}

func writeJSON(dir, name string, v any) (string, error) {
	path := filepath.Join(dir, name)
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// writeTrace writes the trace file: the header's fields, then the spans,
// streamed so a large trace is never held twice in memory.
func writeTrace(path string, header map[string]any, tr *tracer) (string, error) {
	head, err := json.Marshal(header)
	if err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	w.Write(head[:len(head)-1])
	w.WriteString(`,"spans":`)
	if err := tr.writeSpans(w); err != nil {
		return "", err
	}
	w.WriteString("}\n")
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// windowReport is the part of a window kept in the report file.
func windowReport(win *window) map[string]any {
	all, first, second := win.completed()
	half := win.elapsed().Seconds() / 2
	return map[string]any{
		"seconds":                win.seconds,
		"elapsed_s":              win.elapsed().Seconds(),
		"wall_s":                 win.wall.Seconds(),
		"attempted":              win.attempted,
		"failed":                 win.failed,
		"fails":                  win.fails,
		"completed_in_window":    all,
		"establish_samples":      len(win.estLat),
		"rekey_samples":          len(win.rekeyLat),
		"establish_per_s_first":  div(float64(first), half),
		"establish_per_s_second": div(float64(second), half),
		"heap_mb_half":           float64(win.heapHalf) / (1 << 20),
		"heap_mb_end":            float64(win.go1.heapBytes) / (1 << 20),
		"late_ms_p99":            quantile(win.late, 0.99),
		"in_flight_peak":         win.inflightPeak,
		"goroutines_peak":        win.goroutinesPeak,
		"steal_frac":             win.steal,
		"member_flows":           win.flows,
		"meters":                 win.meters,
	}
}

// metricSet is a named set of metrics with a print order.
type metricSet struct {
	all      map[string]metric
	declared map[string]metric
	order    []string
}

func (set *metricSet) add(name string, v float64, unit string) {
	if set.all == nil {
		set.all = map[string]metric{}
	}
	set.all[name] = metric{Value: v, Unit: unit}
	set.order = append(set.order, name)
}

// declaredEndToEnd are the end-to-end metrics BENCHMARK.json declares:
// defined on every workload and never zero. The p99s (only where a run
// holds 1000 samples) and failed_frac (zero when healthy; the result
// line's attempted/failed carry it) are printed and reported but not
// declared.
var declaredEndToEnd = []string{
	"setup_s", "establish_per_s", "establish_p50_ms", "establish_p90_ms",
	"rekey_p50_ms", "rekey_p90_ms", "cpu_ms_per_op", "peak_rss_mb",
	"energy_mj_per_member_flow",
}

// endToEnd computes the end-to-end metrics of the reported window;
// failed_frac counts every attempted window.
func endToEnd(win *window, setupSamples []float64, attempted, failed int) metricSet {
	var m metricSet
	m.add("setup_s", quantile(setupSamples, 0.5), "s")
	m.add("establish_per_s", win.rate(), "ops/s")
	m.add("establish_p50_ms", quantile(win.estLat, 0.5), "ms")
	m.add("establish_p90_ms", quantile(win.estLat, 0.9), "ms")
	if len(win.estLat) >= 1000 {
		m.add("establish_p99_ms", quantile(win.estLat, 0.99), "ms")
	} else {
		m.order = append(m.order, "establish_p99_ms")
	}
	m.add("rekey_p50_ms", quantile(win.rekeyLat, 0.5), "ms")
	m.add("rekey_p90_ms", quantile(win.rekeyLat, 0.9), "ms")
	if len(win.rekeyLat) >= 1000 {
		m.add("rekey_p99_ms", quantile(win.rekeyLat, 0.99), "ms")
	} else {
		m.order = append(m.order, "rekey_p99_ms")
	}
	m.add("failed_frac", div(float64(failed), float64(attempted)), "fraction")
	m.add("cpu_ms_per_op", div(ms(win.go1.cpu-win.go0.cpu), float64(win.attempted)), "ms")
	m.add("peak_rss_mb", peakRSSMB(), "MB")
	m.add("energy_mj_per_member_flow", energyPerFlowMJ(win.meters, win.flows), "mJ")
	m.declared = map[string]metric{}
	for _, name := range declaredEndToEnd {
		m.declared[name] = m.all[name]
	}
	return m
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the per-layer metrics: call timings and counts from
// the traced window, runtime and driver figures from the untraced windows
// around it (the tracer's own allocations and latency would skew them).
func perLayer(w *workload, tr *tracer, before, traced, after *window, queueP50, queueP90 float64,
	rows []ladderRow, es engineStats, prims map[string]float64) metricSet {
	var m metricSet
	ops := float64(traced.attempted)
	m.add("transport.send_us_p50", quantile(tr.durations(spanTransportSend), 0.5), "us")
	m.add("transport.send_us_p90", quantile(tr.durations(spanTransportSend), 0.9), "us")
	m.add("transport.relay_us_p50", quantile(tr.durations(spanTransportRelay), 0.5), "us")
	m.add("transport.ack_us_p50", quantile(tr.durations(spanTransportAck), 0.5), "us")
	m.add("transport.sends_per_op", div(float64(tr.sends), ops), "count")
	m.add("transport.payload_kb_per_op", div(float64(tr.payloadBytes)/1024, ops), "KB")
	m.add("transport.send_errors", float64(tr.sendErrors), "count")
	m.add("transport.recv_batch_mean", div(float64(tr.recvMsg), float64(tr.recvCalls)), "count")

	s0, s1 := traced.stats0, traced.stats1
	m.add("serve.start_us_p50", quantile(tr.durations(spanServeStart), 0.5), "us")
	m.add("serve.deliver_us_p50", quantile(tr.durations(spanServeDeliver), 0.5), "us")
	m.add("serve.queue_delay_ms_p50", queueP50, "ms")
	m.add("serve.queue_delay_ms_p90", queueP90, "ms")
	m.add("serve.peak_queue_depth", float64(s1.PeakQueueDepth), "count")
	m.add("serve.delivered_per_op", div(float64(s1.Delivered-s0.Delivered), ops), "count")
	m.add("serve.sheds", float64(s1.Sheds-s0.Sheds), "count")
	m.add("serve.verify_claims_per_batch", div(float64(s1.VerifyClaims-s0.VerifyClaims), float64(s1.VerifyBatches-s0.VerifyBatches)), "count")
	m.add("serve.verify_busy_ms_per_op", div(ms(s1.VerifyBusy-s0.VerifyBusy), ops), "ms")
	m.add("serve.straggler_ms_p50", quantile(traced.straggler, 0.5), "ms")

	for _, r := range rows {
		m.add("ladder."+r.Layer+"_ms", r.MedianMS, "ms")
	}
	for _, r := range rows {
		m.add("ladder."+r.Layer+"_allocs", r.AllocsPerOp, "count")
	}
	m.add("engine.step_us_p50", quantile(es.stepUS, 0.5), "us")
	m.add("engine.steps_per_op", div(float64(es.steps), float64(rows[0].Reps)), "count")
	names := make([]string, 0, len(prims))
	for name := range prims {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m.add(name, prims[name], "us")
	}

	untracedOps := float64(before.attempted + after.attempted)
	gcCPU := (before.go1.gcCPU - before.go0.gcCPU) + (after.go1.gcCPU - after.go0.gcCPU)
	allCPU := (before.go1.totalCPU - before.go0.totalCPU) + (after.go1.totalCPU - after.go0.totalCPU)
	m.add("go.allocs_per_op", div(float64(before.go1.mallocs-before.go0.mallocs+after.go1.mallocs-after.go0.mallocs), untracedOps), "count")
	m.add("go.alloc_kb_per_op", div(float64(before.go1.allocBytes-before.go0.allocBytes+after.go1.allocBytes-after.go0.allocBytes)/1024, untracedOps), "KB")
	m.add("go.gc_cpu_frac", div(gcCPU, allCPU), "fraction")
	m.add("go.heap_mb_end", float64(after.go1.heapBytes)/(1<<20), "MB")
	m.add("go.goroutines_peak", float64(max(before.goroutinesPeak, after.goroutinesPeak)), "count")

	flows := float64(traced.flows)
	m.add("meter.exp_per_member_flow", div(float64(traced.meters.Exp), flows), "count")
	m.add("meter.sign_ver_per_member_flow", div(float64(traced.meters.SignVer), flows), "count")
	m.add("meter.bytes_tx_per_member_flow", div(float64(traced.meters.BytesTx), flows), "bytes")
	m.add("meter.state_bytes_per_member_flow", div(float64(traced.meters.StateTx), flows), "bytes")

	m.add("driver.late_ms_p99", quantile(slices.Concat(before.late, after.late), 0.99), "ms")
	m.add("driver.in_flight_peak", float64(max(before.inflightPeak, after.inflightPeak)), "count")

	// Tracing overhead: the traced window's throughput (closed loops) or
	// median event latency (the open loop) against the untraced windows'.
	var overhead float64
	if w.inflight > 0 {
		ba, _, _ := before.completed()
		aa, _, _ := after.completed()
		untraced := div(float64(ba+aa), (before.elapsed() + after.elapsed()).Seconds())
		overhead = 1 - div(traced.rate(), untraced)
	} else {
		untraced := quantile(slices.Concat(before.rekeyLat, after.rekeyLat), 0.5)
		overhead = div(quantile(traced.rekeyLat, 0.5), untraced) - 1
	}
	m.add("trace.overhead_frac", overhead, "fraction")
	m.declared = m.all
	return m
}
