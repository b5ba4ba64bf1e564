package serve

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"idgka"
	"idgka/internal/engine"
)

// GroupStat is one rung of the multi-group throughput ladder: how fast
// one process establishes (and re-keys) Groups concurrent groups through
// a Host. It is emitted as the `multi_group` section of gkabench -json.
type GroupStat struct {
	Groups          int     `json:"groups"`
	GroupSize       int     `json:"group_size"`
	Pool            int     `json:"pool"`
	EstablishMS     float64 `json:"establish_ms"`
	EstablishPerSec float64 `json:"establish_per_sec"`
	RekeyMS         float64 `json:"rekey_ms"`
	RekeyPerSec     float64 `json:"rekey_per_sec"`
}

// BenchOptions tunes BenchmarkGroups. The zero value selects a pool of 8
// members, 4-member groups, GOMAXPROCS shards and no crypto acceleration.
type BenchOptions struct {
	Pool      int  // member pool size (groups draw rotating rosters from it)
	GroupSize int  // ring size per group
	Shards    int  // host dispatch lanes
	Accel     bool // enable fixed-base precomputation + verify workers
	Workers   int  // verify-worker pool per member when Accel (0 = 4)
}

func (o BenchOptions) pool() int {
	if o.Pool > 0 {
		return o.Pool
	}
	return 8
}

func (o BenchOptions) groupSize() int {
	if o.GroupSize > 1 {
		return o.GroupSize
	}
	return 4
}

// loopback fans host outbounds straight back into the host, scoping
// broadcasts to the emitting session's ring (the multicast a real
// deployment would use) so cross-group noise never reaches machines that
// are not in the group.
type loopback struct {
	mu sync.RWMutex
	//gkalint:guard mu
	h       *Host
	rosters map[string][]string
}

func (l *loopback) setHost(h *Host) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *loopback) addRoster(sid string, roster []string) {
	l.mu.Lock()
	if l.rosters == nil {
		l.rosters = map[string][]string{}
	}
	l.rosters[sid] = roster
	l.mu.Unlock()
}

func (l *loopback) tx(from string, p idgka.Packet) error {
	l.mu.RLock()
	h := l.h
	roster := l.rosters[engine.EnvelopeSID(p.Payload)]
	l.mu.RUnlock()
	if h == nil {
		return fmt.Errorf("serve: loopback has no host")
	}
	if p.To != "" {
		return h.Deliver(p.To, p)
	}
	if roster == nil {
		return h.Deliver("", p)
	}
	for _, id := range roster {
		if id == from {
			continue
		}
		if err := h.Deliver(id, p); err != nil {
			return err
		}
	}
	return nil
}

// StartGroup starts one run of flow sid on each hosted member in ids;
// start builds the member's session (reading mb.ID() when it needs the
// member's identity). If any Start fails, the runs already started are
// cancelled, so a failed group leaves no live state behind, and the error
// is returned (errors.Is(err, ErrOverloaded) for an admission shed).
func StartGroup(h *Host, sid string, ids []string, start func(mb *idgka.Member) (*idgka.Session, error)) ([]*Run, error) {
	runs := make([]*Run, 0, len(ids))
	for _, id := range ids {
		r, err := h.Start(id, sid, start)
		if err != nil {
			for _, started := range runs {
				started.Cancel()
			}
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// SettleGroups blocks until every run of every group settles (or the
// budget expires), verifies each group committed one agreed non-nil key,
// and returns the keys per group. A group with no runs (a process that
// hosts none of its members) is skipped and its key left nil. It is the
// settle-and-cross-check step every multi-group driver needs (the bench
// ladder, the soak harness, cmd/gkanet).
func SettleGroups(what string, groups [][]*Run, budget time.Duration) ([][]byte, error) {
	deadline := time.Now().Add(budget)
	keys := make([][]byte, len(groups))
	for g, runs := range groups {
		if len(runs) == 0 {
			continue
		}
		for _, r := range runs {
			select {
			case <-r.Done():
			case <-time.After(time.Until(deadline)):
				return nil, fmt.Errorf("%s group %d: run %s timed out", what, g, r.SID())
			}
			if err := r.Err(); err != nil {
				return nil, fmt.Errorf("%s group %d: %w", what, g, err)
			}
		}
		ref := runs[0].Key()
		if ref == nil {
			return nil, fmt.Errorf("%s group %d committed no key", what, g)
		}
		for _, r := range runs[1:] {
			if !bytes.Equal(r.Key(), ref) {
				return nil, fmt.Errorf("%s group %d disagrees on the key", what, g)
			}
		}
		keys[g] = ref
	}
	return keys, nil
}

// BenchmarkGroups measures multi-group serve-layer throughput: for each
// rung in counts it hosts that many concurrent groups (rotating rosters
// over a fixed member pool), establishes them all, then re-keys each via
// a one-member Leave, reporting establishments/sec and re-keys/sec.
func BenchmarkGroups(counts []int, opt BenchOptions) ([]GroupStat, error) {
	auth, err := idgka.NewAuthority()
	if err != nil {
		return nil, err
	}
	pool, size := opt.pool(), opt.groupSize()
	if size > pool {
		return nil, fmt.Errorf("serve bench: group size %d exceeds pool %d", size, pool)
	}
	// VerifyWorkers is itself an accel knob: without Accel the ladder
	// must measure the exact sequential verification path, whatever
	// Workers the caller filled in.
	workers := 0
	if opt.Accel {
		if workers = opt.Workers; workers <= 0 {
			workers = 4
		}
	}
	ids := make([]string, pool)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%02d", i)
	}

	var stats []GroupStat
	for _, n := range counts {
		lb := &loopback{}
		host := NewHost(Config{Shards: opt.Shards, Deadline: 30 * time.Second}, lb.tx)
		lb.setHost(host)
		for _, id := range ids {
			mb, err := auth.NewMemberWithConfig(id, idgka.Config{
				Precompute:    opt.Accel,
				VerifyWorkers: workers,
			})
			if err != nil {
				host.Close()
				return nil, err
			}
			if err := host.AddMember(mb); err != nil {
				host.Close()
				return nil, err
			}
		}
		rosters := make([][]string, n)
		for g := range rosters {
			r := make([]string, size)
			for j := range r {
				r[j] = ids[(g+j)%pool]
			}
			rosters[g] = r
		}

		// Establish all n groups concurrently.
		est := make([][]*Run, n)
		t0 := time.Now()
		for g, roster := range rosters {
			sid := fmt.Sprintf("bench/g%04d/est", g)
			lb.addRoster(sid, roster)
			est[g], err = StartGroup(host, sid, roster, func(mb *idgka.Member) (*idgka.Session, error) {
				return mb.NewSession(sid, roster)
			})
			if err != nil {
				host.Close()
				return nil, err
			}
		}
		if _, err := SettleGroups("establish", est, 2*time.Minute); err != nil {
			host.Close()
			return nil, err
		}
		estElapsed := time.Since(t0)

		// Re-key every group: evict its last ring member via Leave.
		rekey := make([][]*Run, n)
		t1 := time.Now()
		for g, roster := range rosters {
			base := fmt.Sprintf("bench/g%04d/est", g)
			sid := fmt.Sprintf("bench/g%04d/leave", g)
			evict := roster[len(roster)-1]
			survivors := roster[:len(roster)-1]
			lb.addRoster(sid, survivors)
			rekey[g], err = StartGroup(host, sid, survivors, func(mb *idgka.Member) (*idgka.Session, error) {
				return mb.LeaveSession(sid, base, []string{evict})
			})
			if err != nil {
				host.Close()
				return nil, err
			}
		}
		if _, err := SettleGroups("re-key", rekey, 2*time.Minute); err != nil {
			host.Close()
			return nil, err
		}
		rekeyElapsed := time.Since(t1)
		host.Close()

		stats = append(stats, GroupStat{
			Groups:          n,
			GroupSize:       size,
			Pool:            pool,
			EstablishMS:     float64(estElapsed.Microseconds()) / 1000,
			EstablishPerSec: float64(n) / estElapsed.Seconds(),
			RekeyMS:         float64(rekeyElapsed.Microseconds()) / 1000,
			RekeyPerSec:     float64(n) / rekeyElapsed.Seconds(),
		})
	}
	return stats, nil
}
