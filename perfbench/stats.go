package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"idgka"
	"idgka/internal/meter"
)

// failedSample is the latency a failed op enters the percentiles with:
// slower than anything that completed.
const failedSample = math.MaxFloat64

// quantile returns the q-quantile of xs by the nearest-rank rule, or 0
// when xs is empty. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// stealTicks reads the time the hypervisor stole from this machine's
// vCPUs, in USER_HZ ticks (1/100 s) since boot, from /proc/stat; 0 where
// the kernel does not report it.
func stealTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	n, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// stealFrac is the share of the vCPUs' time stolen over a span of wall
// time, from two stealTicks readings.
func stealFrac(ticks int64, wall time.Duration) float64 {
	return float64(ticks) / 100 / (wall.Seconds() * float64(runtime.NumCPU()))
}

// goSnap is the Go runtime's view of the process at one instant.
type goSnap struct {
	cpu        time.Duration // process CPU (getrusage)
	mallocs    uint64
	allocBytes uint64
	heapBytes  uint64
	gcCPU      float64 // runtime-estimated GC CPU seconds
	totalCPU   float64 // runtime-estimated total CPU seconds
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapGo() goSnap {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	samples := slices.Clone(cpuSamples)
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		if s.Value.Kind() == metrics.KindFloat64 {
			return s.Value.Float64()
		}
		return 0
	}
	return goSnap{
		cpu:        cpuTime(),
		mallocs:    mem.Mallocs,
		allocBytes: mem.TotalAlloc,
		heapBytes:  mem.HeapAlloc,
		gcCPU:      val(samples[0]),
		totalCPU:   val(samples[1]),
	}
}

// meterTotals sums operation reports field by field. Integer sums keep
// the per-member-flow ratios exactly reproducible, whatever the number of
// ops a run happened to complete.
type meterTotals struct {
	Exp, SignGen, SignVer, SymOps int64
	MsgTx, MsgRx                  int64
	BytesTx, BytesRx              int64
	StateTx, StateRx              int64
}

func (t *meterTotals) add(r idgka.Report) {
	t.Exp += int64(r.Exp)
	t.SignGen += int64(r.SignGen[meter.SchemeGQ])
	t.SignVer += int64(r.SignVer[meter.SchemeGQ])
	t.SymOps += int64(r.SymEnc + r.SymDec)
	t.MsgTx += int64(r.MsgTx)
	t.MsgRx += int64(r.MsgRx)
	t.BytesTx += r.BytesTx
	t.BytesRx += r.BytesRx
	t.StateTx += r.StateTx
	t.StateRx += r.StateRx
}

// energyPerFlowMJ prices the mean per-member-flow report with the
// paper's Table 5 model (idgka.DefaultEnergyModel). The model is linear
// in every counter, so each counter's unit price comes from EnergyJ of a
// one-count report, and the mean counts are exact integer ratios: the
// figure repeats bit for bit whenever the counts do.
func energyPerFlowMJ(t meterTotals, flows int64) float64 {
	if flows == 0 {
		return 0
	}
	model := idgka.DefaultEnergyModel()
	price := func(r idgka.Report) float64 { return model.EnergyJ(r) * 1000 }
	per := func(n int64) float64 { return float64(n) / float64(flows) }
	gen := meter.NewReport()
	gen.SignGen[meter.SchemeGQ] = 1
	ver := meter.NewReport()
	ver.SignVer[meter.SchemeGQ] = 1
	return per(t.Exp)*price(idgka.Report{Exp: 1}) +
		per(t.SignGen)*price(gen) +
		per(t.SignVer)*price(ver) +
		per(t.SymOps)*price(idgka.Report{SymEnc: 1}) +
		per(t.BytesTx)*price(idgka.Report{BytesTx: 1}) +
		per(t.BytesRx)*price(idgka.Report{BytesRx: 1})
}
