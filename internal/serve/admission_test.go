package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"idgka"
	"idgka/internal/metrics"
)

// stuffShard parks n no-op tasks on a shard WITHOUT signalling its
// worker: appended under the shard lock with no cond.Signal, the worker
// stays asleep in next() and the queue depth holds exactly where the
// test put it — deterministic admission pressure, no timing games.
func stuffShard(s *shard, hm *hostMember, n int, enq time.Time) {
	s.mu.Lock()
	for i := 0; i < n; i++ {
		s.q = append(s.q, task{hm: hm, tick: true, now: enq, enq: enq})
	}
	s.mu.Unlock()
}

// drainShard empties a stuffed shard's queue.
func drainShard(s *shard) {
	s.mu.Lock()
	s.q = nil
	s.mu.Unlock()
}

// TestOverloadShedsBeforeRegistration is the no-half-started-state
// regression: a Start shed by the depth watermark returns ErrOverloaded
// BEFORE the start callback runs, so no session exists at the member, no
// run is registered at the host — and the same sid Starts cleanly once
// the backlog drains.
func TestOverloadShedsBeforeRegistration(t *testing.T) {
	h, lb, ids := newTestHost(t, 2, Config{
		Shards: 1, TickInterval: -1, MaxShardQueue: 4,
	})
	roster := []string{ids[0], ids[1]}
	lb.addRoster("ov", roster)
	h.mu.RLock()
	hm := h.members[ids[0]]
	h.mu.RUnlock()

	stuffShard(hm.sh, hm, 4, time.Now())
	built := false
	r, err := h.Start(ids[0], "ov", func(mb *idgka.Member) (*idgka.Session, error) {
		built = true
		return mb.NewSession("ov", roster)
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v (run %v)", err, r)
	}
	if built {
		t.Fatal("start callback ran despite the shed — session state leaked")
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("error is not an *OverloadError: %v", err)
	}
	if oe.Reason != "queue-depth" || oe.Depth != 4 || oe.Member != ids[0] || oe.SID != "ov" {
		t.Fatalf("overload detail = %+v", oe)
	}
	hm.mu.Lock()
	_, live := hm.runs["ov"]
	hm.mu.Unlock()
	if live {
		t.Fatal("shed Start left a registered run")
	}
	if st := h.Stats(); st.Sheds != 1 || st.LiveRuns != 0 {
		t.Fatalf("stats after shed: %+v", st)
	}

	// Backlog gone, the same sid is admitted — a shed is always safely
	// retryable.
	drainShard(hm.sh)
	r, err = h.Start(ids[0], "ov", func(mb *idgka.Member) (*idgka.Session, error) {
		return mb.NewSession("ov", roster)
	})
	if err != nil {
		t.Fatalf("post-drain Start still rejected: %v", err)
	}
	r.Cancel()
}

// TestOverloadQueueAgeWatermark: the age watermark sheds when the oldest
// queued task has waited too long, independent of depth.
func TestOverloadQueueAgeWatermark(t *testing.T) {
	h, _, ids := newTestHost(t, 2, Config{
		Shards: 1, TickInterval: -1, MaxShardQueueAge: 50 * time.Millisecond,
	})
	h.mu.RLock()
	hm := h.members[ids[0]]
	h.mu.RUnlock()

	// One task, but stamped old: depth is far below any bound, age trips.
	stuffShard(hm.sh, hm, 1, time.Now().Add(-time.Second))
	_, err := h.Start(ids[0], "age", func(mb *idgka.Member) (*idgka.Session, error) {
		return mb.NewSession("age", []string{ids[0], ids[1]})
	})
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "queue-age" {
		t.Fatalf("want queue-age shed, got %v", err)
	}
	drainShard(hm.sh)
}

// TestGroupFairnessShedsHogFirst: under pressure (half a watermark) a
// group holding more than its fair share of the shard's live runs is
// shed while a small group is still admitted — and with no other group
// on the shard, the lone group is never shed below the high watermark.
func TestGroupFairnessShedsHogFirst(t *testing.T) {
	h, lb, ids := newTestHost(t, 2, Config{
		Shards: 1, TickInterval: -1, MaxShardQueue: 8,
	})
	roster := []string{ids[0], ids[1]}
	h.mu.RLock()
	hm := h.members[ids[0]]
	h.mu.RUnlock()
	sh := hm.sh

	// Pressure: half the depth watermark, not over it.
	stuffShard(sh, hm, 4, time.Now())
	defer drainShard(sh)

	// A lone group may fill a pressured shard — nobody to starve.
	sh.addRun("hog")
	sh.addRun("hog")
	sh.addRun("hog")
	if err := h.admit(hm, "hog"); err != nil {
		t.Fatalf("lone group shed under pressure: %v", err)
	}
	// Another group appears; the hog is now over its 0.5 share.
	sh.addRun("small")
	var oe *OverloadError
	if err := h.admit(hm, "hog"); !errors.As(err, &oe) || oe.Reason != "group-fairness" {
		t.Fatalf("want group-fairness shed for the hog, got %v", err)
	}
	// The small group still gets in.
	if err := h.admit(hm, "small"); err != nil {
		t.Fatalf("small group shed alongside the hog: %v", err)
	}
	// Fairness never bites an unpressured shard.
	drainShard(sh)
	if err := h.admit(hm, "hog"); err != nil {
		t.Fatalf("fairness shed without pressure: %v", err)
	}
	sh.dropRun("hog")
	sh.dropRun("hog")
	sh.dropRun("hog")
	sh.dropRun("small")

	lb.addRoster("unused", roster)
}

// TestStatsAndMetricsConsistencyUnderLoad hammers one host with
// concurrent group establishments while readers poll Host.Stats and
// render every default-registry metric; under -race this proves the
// snapshots are never torn, and the assertions prove the counters are
// monotone and the histogram JSON stays well-formed.
func TestStatsAndMetricsConsistencyUnderLoad(t *testing.T) {
	h, lb, ids := newTestHost(t, 4, Config{})
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var prev Stats
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := h.Stats()
			if st.Delivered < prev.Delivered || st.Sheds < prev.Sheds {
				t.Errorf("counter went backwards: %+v then %+v", prev, st)
				return
			}
			if st.QueueDepth < 0 || st.LiveRuns < 0 {
				t.Errorf("negative level: %+v", st)
				return
			}
			prev = st
		}
	}()
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Every instrument's String() must stay a valid JSON value
			// even while observers are mid-flight.
			metrics.Default.Do(func(name string, v metrics.Var) {
				var any any
				if err := json.Unmarshal([]byte(v.String()), &any); err != nil {
					t.Errorf("metric %s rendered invalid JSON: %v", name, err)
				}
			})
		}
	}()

	const rounds, groups = 3, 6
	for round := 0; round < rounds; round++ {
		all := make([][]*Run, groups)
		for g := 0; g < groups; g++ {
			roster := []string{ids[g%4], ids[(g+1)%4], ids[(g+2)%4]}
			sid := fmt.Sprintf("cons/%d/%02d", round, g)
			lb.addRoster(sid, roster)
			all[g] = startGroup(t, h, sid, roster, func(mb *idgka.Member) (*idgka.Session, error) {
				return mb.NewSession(sid, roster)
			})
		}
		for g := 0; g < groups; g++ {
			awaitGroup(t, fmt.Sprintf("cons %d/%d", round, g), all[g])
		}
	}
	close(stop)
	readers.Wait()

	st := h.Stats()
	if st.Delivered == 0 || st.LiveRuns != 0 {
		t.Fatalf("final stats: %+v", st)
	}
	if st.PeakQueueDepth < 1 {
		t.Fatalf("peak queue depth never recorded: %+v", st)
	}
}
