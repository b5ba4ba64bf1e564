package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"slices"
	"time"

	"idgka"
	"idgka/internal/engine"
	"idgka/internal/netsim"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
)

// ladderRow is one rung of the layer ladder: the same op (establish a
// ring, then re-key it with a one-member Leave), one in flight, driven
// through one stack. A layer's tax is its difference from the row below.
type ladderRow struct {
	Layer       string  `json:"layer"`
	Ring        int     `json:"ring"`
	Reps        int     `json:"reps"`
	MedianMS    float64 `json:"median_ms"`
	P90MS       float64 `json:"p90_ms"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	AllocKBOp   float64 `json:"alloc_kb_per_op"`
	TaxMS       float64 `json:"tax_ms"`
	TaxAllocs   float64 `json:"tax_allocs"`
}

// engineStats is what the engine row observes per Machine.Step call.
type engineStats struct {
	stepUS []float64
	steps  int
}

// ladderReps is the number of measured ops per row: enough for a stable
// median at small rings without letting large rings take minutes.
func ladderReps(n int, short bool) int {
	if short {
		return 2
	}
	return max(6, 160/n)
}

func rotate(ids []string, k int) []string {
	k %= len(ids)
	return append(slices.Clone(ids[k:]), ids[:k]...)
}

// measureRow runs one warm-up op, then reps timed ops, and summarizes
// them. Allocations are the whole process's, background goroutines of
// the stack included: they are part of the layer's cost.
func measureRow(layer string, n, reps int, tr *tracer, op func(rep int) error) (ladderRow, error) {
	if err := op(0); err != nil {
		return ladderRow{}, fmt.Errorf("ladder %s: %w", layer, err)
	}
	times := make([]float64, 0, reps)
	var mallocs, bytes uint64
	for rep := 1; rep <= reps; rep++ {
		var m0, m1 runtime.MemStats
		var span int32
		if tr != nil {
			span = tr.beginLadderOp()
		}
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if err := op(rep); err != nil {
			return ladderRow{}, fmt.Errorf("ladder %s: %w", layer, err)
		}
		t1 := time.Now()
		runtime.ReadMemStats(&m1)
		if tr != nil {
			tr.endLadderOp(span, t0, t1)
		}
		times = append(times, ms(t1.Sub(t0)))
		mallocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
	}
	return ladderRow{
		Layer:       layer,
		Ring:        n,
		Reps:        reps,
		MedianMS:    quantile(times, 0.5),
		P90MS:       quantile(times, 0.9),
		AllocsPerOp: float64(mallocs) / float64(reps),
		AllocKBOp:   float64(bytes) / 1024 / float64(reps),
	}, nil
}

// runLadder drives the op through the four stacks in turn, bottom up.
func runLadder(w *workload, auth *idgka.Authority, n int, seed int64, short bool, tr *tracer) ([]ladderRow, engineStats, error) {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("l%02d", i)
	}
	reps := ladderReps(n, short)
	var rows []ladderRow
	es, row, err := ladderEngine(w, ids, reps, seed, tr)
	if err != nil {
		return nil, es, err
	}
	rows = append(rows, row)
	if row, err = ladderIdgka(w, auth, ids, reps, tr); err != nil {
		return nil, es, err
	}
	rows = append(rows, row)
	for _, tcp := range []bool{false, true} {
		if row, err = ladderServe(w, auth, ids, reps, tcp, tr); err != nil {
			return nil, es, err
		}
		rows = append(rows, row)
	}
	for i := 1; i < len(rows); i++ {
		rows[i].TaxMS = rows[i].MedianMS - rows[i-1].MedianMS
		rows[i].TaxAllocs = rows[i].AllocsPerOp - rows[i-1].AllocsPerOp
	}
	return rows, es, nil
}

// ladderEngine is the bottom row: bare engine.Machines over the seeded
// netsim.Async scheduler, one medium per flow holding only its ring.
func ladderEngine(w *workload, ids []string, reps int, seed int64, tr *tracer) (engineStats, ladderRow, error) {
	var es engineStats
	set := params.Default()
	cfg := engine.Config{Set: set.Public(), Accel: engine.AccelConfig{
		Precompute:    w.member.Precompute,
		VerifyWorkers: w.member.VerifyWorkers,
	}}
	mcs := map[string]*engine.Machine{}
	for _, id := range ids {
		sk, err := gq.Extract(set.RSA, id)
		if err != nil {
			return es, ladderRow{}, err
		}
		if mcs[id], err = engine.NewMachine(cfg, sk, nil); err != nil {
			return es, ladderRow{}, err
		}
	}
	timing := false
	drive := func(rep int, sid string, parts []string, start func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error)) (*big.Int, error) {
		keys := map[string]*big.Int{}
		var failed error
		note := func(id string, evts []engine.Event) {
			for _, e := range evts {
				switch {
				case e.Kind == engine.EventEstablished && e.SID == sid:
					keys[id] = e.Group.Key
				case e.Kind == engine.EventFailed:
					failed = e.Err
				}
			}
		}
		a := netsim.NewAsync(seed + int64(rep))
		for _, id := range parts {
			mc := mcs[id]
			err := a.Register(id, nil, func(msg netsim.Message) error {
				t0 := time.Now()
				outs, evts := mc.Step(msg)
				if timing {
					t1 := time.Now()
					es.steps++
					es.stepUS = append(es.stepUS, us(t1.Sub(t0)))
					if tr != nil {
						tr.step(t0, t1)
					}
				}
				note(id, evts)
				return engine.SendAll(a, id, outs)
			})
			if err != nil {
				return nil, err
			}
		}
		for _, id := range parts {
			outs, evts, err := start(mcs[id])
			if err != nil {
				return nil, err
			}
			note(id, evts)
			if err := engine.SendAll(a, id, outs); err != nil {
				return nil, err
			}
		}
		if _, err := a.Run(0); err != nil {
			return nil, err
		}
		if failed != nil {
			return nil, failed
		}
		return agreedBig(keys, parts)
	}
	op := func(rep int) error {
		timing = rep > 0
		ring := rotate(ids, rep)
		est, lv := fmt.Sprintf("ladder/%d/est", rep), fmt.Sprintf("ladder/%d/rekey", rep)
		defer func() {
			for _, mc := range mcs {
				for _, sid := range []string{est, lv} {
					mc.Abort(sid)
					mc.Release(sid)
				}
			}
		}()
		k0, err := drive(rep, est, ring, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
			return mc.StartInitial(est, ring)
		})
		if err != nil {
			return err
		}
		newRoster, refresh, err := engine.PlanLeave(mcs[ring[0]].Session(est), ring[len(ring)-1:])
		if err != nil {
			return err
		}
		k1, err := drive(rep, lv, newRoster, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
			return mc.StartPartition(lv, est, newRoster, refresh)
		})
		if err != nil {
			return err
		}
		if k0.Cmp(k1) == 0 {
			return errors.New("re-key did not rotate the key")
		}
		return nil
	}
	row, err := measureRow("engine", len(ids), reps, tr, op)
	return es, row, err
}

func agreedBig(keys map[string]*big.Int, parts []string) (*big.Int, error) {
	ref := keys[parts[0]]
	if ref == nil {
		return nil, fmt.Errorf("%s committed no key", parts[0])
	}
	for _, id := range parts[1:] {
		if k := keys[id]; k == nil || k.Cmp(ref) != 0 {
			return nil, fmt.Errorf("%s disagrees on the key", id)
		}
	}
	return ref, nil
}

// ladderIdgka drives idgka.Members through Member.HandlePacket with a
// FIFO pump of the benchmark's own, broadcasts scoped to the ring.
func ladderIdgka(w *workload, auth *idgka.Authority, ids []string, reps int, tr *tracer) (ladderRow, error) {
	members := map[string]*idgka.Member{}
	for _, id := range ids {
		mb, err := auth.NewMemberWithConfig(id, w.member)
		if err != nil {
			return ladderRow{}, err
		}
		members[id] = mb
	}
	type delivery struct {
		to string
		p  idgka.Packet
	}
	drive := func(parts []string, open func(mb *idgka.Member) (*idgka.Session, error)) ([]byte, []*idgka.Session, error) {
		var queue []delivery
		route := func(from string, p idgka.Packet) {
			if p.To != "" {
				queue = append(queue, delivery{p.To, p})
				return
			}
			for _, id := range parts {
				if id != from {
					queue = append(queue, delivery{id, p})
				}
			}
		}
		var sessions []*idgka.Session
		for _, id := range parts {
			s, err := open(members[id])
			if err != nil {
				return nil, sessions, err
			}
			sessions = append(sessions, s)
			for _, p := range s.Outbox() {
				route(id, p)
			}
		}
		for len(queue) > 0 {
			d := queue[0]
			queue = queue[1:]
			for _, r := range members[d.to].HandlePacket(d.p) {
				route(d.to, r)
			}
		}
		ref := sessions[0].Key()
		for i, s := range sessions {
			if err := s.Err(); err != nil || !s.Done() {
				return nil, sessions, fmt.Errorf("%s: unsettled or failed: %v", parts[i], err)
			}
			if s.Key() == nil || !bytes.Equal(s.Key(), ref) {
				return nil, sessions, fmt.Errorf("%s disagrees on the key", parts[i])
			}
		}
		return ref, sessions, nil
	}
	op := func(rep int) error {
		ring := rotate(ids, rep)
		est, lv := fmt.Sprintf("ladder/%d/est", rep), fmt.Sprintf("ladder/%d/rekey", rep)
		k0, s0, err := drive(ring, func(mb *idgka.Member) (*idgka.Session, error) { return mb.NewSession(est, ring) })
		defer closeAll(s0)
		if err != nil {
			return err
		}
		k1, s1, err := drive(ring[:len(ring)-1], func(mb *idgka.Member) (*idgka.Session, error) {
			return mb.LeaveSession(lv, est, ring[len(ring)-1:])
		})
		defer closeAll(s1)
		if err != nil {
			return err
		}
		if bytes.Equal(k0, k1) {
			return errors.New("re-key did not rotate the key")
		}
		return nil
	}
	return measureRow("idgka", len(ids), reps, tr, op)
}

func closeAll(ss []*idgka.Session) {
	for _, s := range ss {
		s.Close()
	}
}

// ladderServe runs the op through a serve.Host with the workload's host
// configuration, over the loopback or over the TCP hub.
func ladderServe(w *workload, auth *idgka.Authority, ids []string, reps int, tcp bool, tr *tracer) (ladderRow, error) {
	s, err := newStack(auth, ids, tcp, w.member, w.host)
	if err != nil {
		return ladderRow{}, err
	}
	defer s.close()
	op := func(rep int) error {
		ring := rotate(ids, rep)
		est, lv := fmt.Sprintf("ladder/%d/est", rep), fmt.Sprintf("ladder/%d/rekey", rep)
		e := &phase{sid: est, opKey: est, ring: ring}
		err := s.runPhase(e, establishAll(ring, est))
		defer s.release(e)
		if err != nil {
			return err
		}
		r := &phase{sid: lv, opKey: lv, ring: ring[:len(ring)-1], baseKey: e.key}
		err = s.runPhase(r, leaveAll(lv, est, ring[len(ring)-1:]))
		defer s.release(r)
		return err
	}
	layer := "serve"
	if tcp {
		layer = "tcp"
	}
	return measureRow(layer, len(ids), reps, tr, op)
}
