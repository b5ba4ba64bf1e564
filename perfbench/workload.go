package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"idgka"
	"idgka/internal/serve"
)

// workload is one fixed keying workload. The three are chosen so that
// each layer's cost dominates somewhere and is absent somewhere else; see
// README.md for the reasoning behind every number here.
type workload struct {
	name string
	// members is the number of hosted members; ring the ring size of every
	// op (the churn workload's rings start at ring and move within
	// [minRing, maxRing]).
	members, ring int
	// inflight > 0 selects a closed loop with that many ops in flight;
	// 0 selects the open-loop churn schedule.
	inflight int
	tcp      bool
	member   idgka.Config
	host     serve.Config

	groups           int
	minRing, maxRing int
	// rate is the churn schedule's constant event rate (events/s): about
	// half the rate at which the churn mix saturates on a 2-core machine.
	rate float64
}

var workloads = []*workload{
	// Small rings over the TCP hub: per-frame relay and ack, frame coding,
	// shard queueing and the amortized verify lane dominate.
	{
		name:     "tcp-small-groups",
		members:  4,
		ring:     4,
		inflight: 16,
		tcp:      true,
		member:   idgka.Config{Precompute: true},
		host:     serve.Config{AmortizeVerify: true, Shards: 4, Deadline: 30 * time.Second},
	},
	// 32-member rings over an in-process loopback: arithmetic dominates and
	// no transport is involved.
	{
		name:     "loopback-large-ring",
		members:  32,
		ring:     32,
		inflight: 2,
		member:   idgka.Config{Precompute: true, VerifyWorkers: 4},
		host:     serve.Config{Deadline: 30 * time.Second},
	},
	// Open-loop Join/Leave/Partition events on standing groups over the
	// TCP hub: the dynamic flows, and queueing latency.
	{
		name:    "tcp-membership-churn",
		members: 6,
		ring:    4,
		tcp:     true,
		member:  idgka.Config{Precompute: true},
		// One shard per member: a member parked on a settling verify batch
		// never starves another member's traffic of a lane.
		host:    serve.Config{AmortizeVerify: true, Shards: 6, Deadline: 30 * time.Second},
		groups:  4,
		minRing: 3,
		maxRing: 6,
		rate:    churnRate,
	},
}

// churnRate is about half the rate at which the churn mix saturates: with
// all four groups kept busy back to back it sustained 322, 331 and 358
// events/s over three seeds (2-vCPU container, Go 1.24).
const churnRate = 170

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) ids() []string {
	ids := make([]string, w.members)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%02d", i)
	}
	return ids
}

// group is one standing group of the churn workload.
type group struct {
	idx   int
	sid   string
	ring  []string
	key   []byte
	base  *phase // the phase whose runs hold the committed group
	busy  bool
	queue []churnEvent
	// broken marks a group whose last event failed: its members no longer
	// share a committed group, so its later events count as failed.
	broken bool
}

// bench is one process's run of a workload: the deployment plus the
// seeded generator that drives ring rotations and the churn schedule.
type bench struct {
	w      *workload
	rng    *rand.Rand
	auth   *idgka.Authority
	s      *stack
	groups []*group
	seq    int // ops started so far, across windows
}

// setup builds everything the timed ops need: the authority, member
// extraction and tables, the host, hub and links, and for the churn
// workload the standing groups.
func setup(w *workload, seed int64) (*bench, error) {
	b := &bench{w: w, rng: rand.New(rand.NewSource(seed))}
	auth, err := idgka.NewAuthority()
	if err != nil {
		return nil, err
	}
	b.auth = auth
	if b.s, err = newStack(auth, w.ids(), w.tcp, w.member, w.host); err != nil {
		return nil, err
	}
	if w.groups > 0 {
		if err := b.standUp(); err != nil {
			b.s.close()
			return nil, err
		}
	}
	return b, nil
}

// standUp establishes the churn workload's standing groups concurrently.
func (b *bench) standUp() error {
	ids := b.s.ids
	done := make(chan *phase, b.w.groups)
	for g := 0; g < b.w.groups; g++ {
		perm := b.rng.Perm(len(ids))[:b.w.ring]
		ring := make([]string, len(perm))
		for i, p := range perm {
			ring[i] = ids[p]
		}
		sid := fmt.Sprintf("g%d/e%06d", g, 0)
		b.groups = append(b.groups, &group{idx: g, sid: sid, ring: ring})
		b.s.launch(&phase{op: g, opKey: sid, sid: sid, ring: ring}, establishAll(ring, sid), done)
	}
	for range b.groups {
		ph := <-done
		g := b.groups[ph.op]
		g.base = ph
		if ph.fail != failNone {
			return fmt.Errorf("standing group %d: %s %v", ph.op, failNames[ph.fail], ph.err)
		}
		g.key = ph.key
	}
	return nil
}

func (b *bench) close() { b.s.close() }

// window is what one measured window observed.
type window struct {
	seconds float64

	attempted, failed int
	fails             map[string]int
	violations        []string
	// doneAt holds the settle time of every op that completed.
	doneAt           []time.Time
	estLat, rekeyLat []float64 // ms; failed ops enter as failedSample
	straggler        []float64 // ms
	late             []float64 // ms
	inflightPeak     int
	goroutinesPeak   int
	flows            int64
	meters           meterTotals

	go0, go1       goSnap
	heapHalf       uint64
	stats0, stats1 serve.Stats
	// steal0 and steal are the hypervisor's steal counter at the window's
	// start and the share of vCPU time it stole until the window drained.
	steal0 int64
	steal  float64
	// startedAt opens the window and ended is its nominal end. closedAt
	// is when it actually closed: when the closed loop stopped issuing
	// ops, or when the open loop's last event completed. wall runs from
	// its start to the last op drained.
	startedAt, ended, closedAt time.Time
	wall                       time.Duration
}

func newWindow(d time.Duration) *window {
	return &window{seconds: d.Seconds(), fails: map[string]int{}}
}

// noteFail records one failed op (or event) and any correctness
// violation it represents.
func (win *window) noteFail(ph *phase) {
	win.failed++
	win.fails[failNames[ph.fail]]++
	if ph.fail.violation() {
		win.violations = append(win.violations, fmt.Sprintf("%s: %s", ph.sid, failNames[ph.fail]))
	}
}

// settle notes an op that completed at t.
func (win *window) settle(t time.Time) { win.doneAt = append(win.doneAt, t) }

func (win *window) elapsed() time.Duration { return win.closedAt.Sub(win.startedAt) }

// completed counts the ops that completed by the window's close, in all
// and in its first and second half.
func (win *window) completed() (all, first, second int) {
	mid := win.startedAt.Add(win.elapsed() / 2)
	for _, t := range win.doneAt {
		switch {
		case t.After(win.closedAt):
		case t.Before(mid):
			first++
		default:
			second++
		}
	}
	return first + second, first, second
}

// rate is the window's throughput: ops completed by its close per second.
func (win *window) rate() float64 {
	all, _, _ := win.completed()
	return div(float64(all), win.elapsed().Seconds())
}

// begin snapshots the process and resets the meters; nothing is in
// flight between windows.
func (b *bench) begin(win *window, d time.Duration) {
	b.s.resetMeters()
	win.stats0 = b.s.host.Stats()
	win.go0 = snapGo()
	win.steal0 = stealTicks()
	win.startedAt = time.Now()
	win.ended = win.startedAt.Add(d)
}

func (b *bench) finish(win *window) {
	win.wall = time.Since(win.startedAt)
	win.steal = stealFrac(stealTicks()-win.steal0, win.wall)
	win.go1 = snapGo()
	win.stats1 = b.s.host.Stats()
	win.meters = b.s.meterTotals()
}

// sampler tracks the goroutine peak and the mid-window heap.
type sampler struct {
	win    *window
	ticker *time.Ticker
	half   time.Time
}

func newSampler(win *window) *sampler {
	return &sampler{win: win, ticker: time.NewTicker(20 * time.Millisecond), half: win.startedAt.Add(win.ended.Sub(win.startedAt) / 2)}
}

func (sm *sampler) sample(now time.Time) {
	sm.win.goroutinesPeak = max(sm.win.goroutinesPeak, runtime.NumGoroutine())
	if sm.win.heapHalf == 0 && !now.Before(sm.half) {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		sm.win.heapHalf = m.HeapAlloc
	}
}

// op is one closed-loop lifecycle: establish a rotated ring, then re-key
// it with a one-member Leave of its last member.
type op struct {
	idx        int
	est, rekey *phase
}

// runClosed drives the closed loop for d: inflight ops at all times, each
// replaced as soon as it completes, then drains the ops still in flight.
func (b *bench) runClosed(d time.Duration) *window {
	win := newWindow(d)
	b.begin(win, d)
	sm := newSampler(win)
	defer sm.ticker.Stop()
	// One outstanding phase per op in flight.
	done := make(chan *phase, b.w.inflight)
	n := len(b.s.ids)
	inflight := 0
	ops := map[int]*op{}
	startOp := func() {
		o := &op{idx: b.seq}
		b.seq++
		k := b.rng.Intn(n)
		ring := rotate(b.s.ids, k)[:b.w.ring]
		key := fmt.Sprintf("o%06d", o.idx)
		sid := key + "/est"
		o.est = &phase{op: o.idx, opKey: key, sid: sid, ring: ring}
		ops[o.idx] = o
		inflight++
		win.attempted++
		win.flows += int64(len(ring))
		b.s.launch(o.est, establishAll(ring, sid), done)
	}
	for i := 0; i < b.w.inflight; i++ {
		startOp()
	}
	closeAt := time.NewTimer(d)
	defer closeAt.Stop()
	open := true
	for open || inflight > 0 {
		select {
		case ph := <-done:
			o := ops[ph.op]
			if o.rekey == nil && ph.fail == failNone {
				ring := ph.roster
				evict := ring[len(ring)-1]
				sid := ph.opKey + "/rekey"
				o.rekey = &phase{op: o.idx, opKey: ph.opKey, sid: sid, ring: ring[:len(ring)-1], baseKey: ph.key}
				win.flows += int64(len(ring) - 1)
				b.s.launch(o.rekey, leaveAll(sid, ph.sid, []string{evict}), done)
				continue
			}
			b.endOp(win, o, ph)
			delete(ops, o.idx)
			inflight--
			if open {
				startOp()
			}
		case now := <-closeAt.C:
			open = false
			win.closedAt = now
		case now := <-sm.ticker.C:
			sm.sample(now)
		}
		win.inflightPeak = max(win.inflightPeak, inflight)
	}
	b.finish(win)
	return win
}

// endOp records a finished op (ph is its last phase) and releases every
// run it holds: the superseded base group and the re-keyed group alike,
// so member state stays bounded however long the run.
func (b *bench) endOp(win *window, o *op, ph *phase) {
	tr := b.s.tr.Load()
	if ph.fail != failNone {
		win.noteFail(ph)
		win.estLat = append(win.estLat, failedSample)
		win.rekeyLat = append(win.rekeyLat, failedSample)
	} else {
		win.settle(ph.settled)
		win.estLat = append(win.estLat, ms(o.est.latency()))
		win.rekeyLat = append(win.rekeyLat, ms(o.rekey.latency()))
		if tr != nil {
			win.straggler = append(win.straggler, ms(o.est.settled.Sub(o.est.fastest)))
		}
	}
	if tr != nil {
		tr.endPhase(o.est)
		if o.rekey != nil {
			tr.endPhase(o.rekey)
		}
		tr.endOp(ph.opKey, o.est.start, ph.settled)
	}
	b.s.release(o.est)
	if o.rekey != nil {
		b.s.release(o.rekey)
	}
}
