package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"
)

type churnKind uint8

const (
	churnJoin churnKind = iota
	churnLeave
	churnPartition
)

// churnEvent is one scheduled membership event on a standing group.
type churnEvent struct {
	idx   int
	due   time.Duration // offset from the window start
	group int
	kind  churnKind
	who   []string // the joiner, or the leavers
}

// churnSchedule generates the events due in a window of length d at the
// workload's constant rate. Each event's group is drawn uniformly; its
// kind is drawn from those that keep the ring within [minRing, maxRing]
// (Join below the maximum, Leave above the minimum, a two-member Leave
// when two can go); the joiner or leavers are drawn from the members
// outside or inside the ring. The generator tracks membership itself, so
// the program only ever receives the generated operations.
func churnSchedule(w *workload, rng *rand.Rand, groups []*group, all []string, first int, d time.Duration) []churnEvent {
	sets := make([][]string, len(groups))
	for i, g := range groups {
		sets[i] = sorted(g.ring)
	}
	n := int(d.Seconds() * w.rate)
	events := make([]churnEvent, 0, n)
	for i := 0; i < n; i++ {
		g := rng.Intn(len(groups))
		set := sets[g]
		var kinds []churnKind
		if len(set) < w.maxRing {
			kinds = append(kinds, churnJoin)
		}
		if len(set) > w.minRing {
			kinds = append(kinds, churnLeave)
		}
		if len(set)-2 >= w.minRing {
			kinds = append(kinds, churnPartition)
		}
		ev := churnEvent{
			idx:   first + i,
			due:   time.Duration(float64(i) / w.rate * float64(time.Second)),
			group: g,
			kind:  kinds[rng.Intn(len(kinds))],
		}
		switch ev.kind {
		case churnJoin:
			var out []string
			for _, id := range all {
				if !slices.Contains(set, id) {
					out = append(out, id)
				}
			}
			ev.who = []string{out[rng.Intn(len(out))]}
			set = sorted(append(slices.Clone(set), ev.who...))
		case churnLeave, churnPartition:
			k := 1
			if ev.kind == churnPartition {
				k = 2
			}
			for _, p := range rng.Perm(len(set))[:k] {
				ev.who = append(ev.who, set[p])
			}
			set = slices.DeleteFunc(slices.Clone(set), func(id string) bool { return slices.Contains(ev.who, id) })
		}
		sets[g] = set
		events = append(events, ev)
	}
	return events
}

func sorted(ids []string) []string {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

// runOpen issues the churn schedule for a window of length d, each event
// at its due time whatever the system's state, then drains. Events on one
// group run one at a time; an event due while its group is busy waits in
// the group's queue, and that wait counts toward its latency because
// latency runs from the due time.
func (b *bench) runOpen(d time.Duration) *window {
	win := newWindow(d)
	events := churnSchedule(b.w, b.rng, b.groups, b.s.ids, b.seq, d)
	b.seq += len(events)
	b.begin(win, d)
	sm := newSampler(win)
	defer sm.ticker.Stop()
	// At most one event per group is in flight.
	done := make(chan *phase, len(b.groups))
	busy := 0
	var start func(g *group)
	start = func(g *group) {
		for len(g.queue) > 0 {
			ev := g.queue[0]
			g.queue = g.queue[1:]
			win.attempted++
			if g.broken {
				win.failed++
				win.fails[failNames[failBrokenGroup]]++
				win.estLat = appendJoin(win.estLat, ev, failedSample)
				win.rekeyLat = append(win.rekeyLat, failedSample)
				continue
			}
			ph := b.churnPhase(g, ev, win.startedAt.Add(ev.due))
			win.flows += int64(len(ph.ring))
			g.busy = true
			busy++
			b.s.launch(ph, b.churnStarter(g, ev, ph), done)
			return
		}
	}
	next := 0
	timer := time.NewTimer(0)
	defer timer.Stop()
	for next < len(events) || busy > 0 {
		select {
		case now := <-timer.C:
			for next < len(events) && !now.Before(win.startedAt.Add(events[next].due)) {
				ev := events[next]
				next++
				win.late = append(win.late, ms(now.Sub(win.startedAt.Add(ev.due))))
				g := b.groups[ev.group]
				g.queue = append(g.queue, ev)
				if !g.busy {
					start(g)
				}
			}
			if next < len(events) {
				timer.Reset(time.Until(win.startedAt.Add(events[next].due)))
			}
		case ph := <-done:
			g := b.groups[ph.op]
			g.busy = false
			busy--
			b.endEvent(win, g, ph)
			start(g)
		case now := <-sm.ticker.C:
			sm.sample(now)
		}
		win.inflightPeak = max(win.inflightPeak, busy)
	}
	win.closedAt = time.Now()
	if len(win.doneAt) > 0 {
		win.closedAt = slices.MaxFunc(win.doneAt, time.Time.Compare)
	}
	b.finish(win)
	return win
}

// appendJoin adds a latency sample to the establish series only for Join
// events: in the churn workload, "establish" is a member's admission.
func appendJoin(xs []float64, ev churnEvent, v float64) []float64 {
	if ev.kind != churnJoin {
		return xs
	}
	return append(xs, v)
}

func (b *bench) churnPhase(g *group, ev churnEvent, due time.Time) *phase {
	sid := fmt.Sprintf("g%d/e%06d", g.idx, ev.idx+1)
	ph := &phase{op: g.idx, opKey: sid, sid: sid, due: due, baseKey: g.key, churn: ev}
	if ev.kind == churnJoin {
		ph.ring = append(slices.Clone(g.ring), ev.who...)
	} else {
		ph.ring = slices.DeleteFunc(slices.Clone(g.ring), func(id string) bool { return slices.Contains(ev.who, id) })
	}
	return ph
}

func (b *bench) churnStarter(g *group, ev churnEvent, ph *phase) func(string) starter {
	if ev.kind == churnJoin {
		return joinAll(ph.sid, g.sid, g.ring, ev.who[0])
	}
	return leaveAll(ph.sid, g.sid, ev.who)
}

// endEvent records a finished event. On success the group moves to the
// new session and the superseded base runs are cancelled, releasing the
// old group in every member's machine; on failure the group is broken.
func (b *bench) endEvent(win *window, g *group, ph *phase) {
	tr := b.s.tr.Load()
	if tr != nil {
		tr.endPhase(ph)
		tr.endOp(ph.opKey, ph.start, ph.settled)
	}
	if ph.fail != failNone {
		win.noteFail(ph)
		win.estLat = appendJoin(win.estLat, ph.churn, failedSample)
		win.rekeyLat = append(win.rekeyLat, failedSample)
		g.broken = true
		b.s.release(ph)
		return
	}
	win.settle(ph.settled)
	win.estLat = appendJoin(win.estLat, ph.churn, ms(ph.latency()))
	win.rekeyLat = append(win.rekeyLat, ms(ph.latency()))
	if tr != nil {
		win.straggler = append(win.straggler, ms(ph.settled.Sub(ph.fastest)))
	}
	b.s.release(g.base)
	g.base, g.sid, g.ring, g.key = ph, ph.sid, ph.roster, ph.key
}
