package main

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"idgka"
	"idgka/internal/meter"
	"idgka/internal/transport"
)

// newHub starts a hub on loopback for one test and returns its address.
func newHub(t *testing.T) string {
	t.Helper()
	hub, err := transport.NewHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	return hub.Addr()
}

// nodeIDs names the first n nodes of a deployment.
func nodeIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%02d", i+1)
	}
	return ids
}

// newProc wires a router on the hub at addr and attaches the owned nodes
// with their members, as one gkanet process does. A proc owning fewer
// than total nodes synchronises on the ready-barrier.
func newProc(t *testing.T, addr string, own []string, total int) *proc {
	t.Helper()
	auth, err := idgka.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	router := transport.NewRouter(addr)
	t.Cleanup(router.Close)
	p := &proc{router: router, ids: own}
	if len(own) < total {
		p.barrierTotal = total
	}
	for _, id := range own {
		link := meter.New()
		if err := router.Attach(id, link); err != nil {
			t.Fatal(err)
		}
		mb, err := auth.NewMember(id)
		if err != nil {
			t.Fatal(err)
		}
		p.links = append(p.links, link)
		p.members = append(p.members, mb)
	}
	return p
}

// member returns the proc's member with the given id.
func (p *proc) member(id string) *idgka.Member {
	for _, mb := range p.members {
		if mb.ID() == id {
			return mb
		}
	}
	return nil
}

// TestEventDrivenEstablishmentOverTCP is the acceptance path of the
// event-driven deployment: a real hub on loopback, one TCP connection per
// node, and every member fed ONLY from its own inbox — establishment and
// key confirmation complete with matching keys.
func TestEventDrivenEstablishmentOverTCP(t *testing.T) {
	const n = 4
	ids := nodeIDs(n)
	p := newProc(t, newHub(t), ids, n)

	keys, err := p.run(scenario{roster: ids, groups: 1})
	if err != nil {
		t.Fatalf("event-driven GKA over TCP: %v", err)
	}
	if len(keys) != 1 || keys[0] == nil {
		t.Fatalf("keys = %x, want one agreed key", keys)
	}
	// Each member transmitted its two protocol rounds plus one
	// confirmation digest.
	for i, link := range p.links {
		if r := link.Report(); r.MsgTx != 3 {
			t.Errorf("%s: MsgTx = %d, want 3", ids[i], r.MsgTx)
		}
	}
}

// TestEventDrivenDynamicLifecycleOverTCP runs the coordinator-free
// dynamic-membership demo over a real hub: establish, admit a new TCP
// node via Join, evict a member via Leave, confirming after every
// re-key. Every member derives the flow parameters from its own session
// registry; the run itself checks each re-key rotated the key.
func TestEventDrivenDynamicLifecycleOverTCP(t *testing.T) {
	const n = 4 // founders; one more node joins dynamically
	ids := nodeIDs(n + 1)
	p := newProc(t, newHub(t), ids, n+1)
	joiner, evictee := ids[n], ids[1]

	keys, err := p.run(scenario{roster: ids[:n], groups: 1, joiner: joiner, evictee: evictee})
	if err != nil {
		t.Fatalf("event-driven lifecycle over TCP: %v", err)
	}
	// Every survivor — including the joined node — confirmed keys[0]; the
	// evictee's last key (the joined group's) must differ.
	if keys[0] == nil || bytes.Equal(p.member(evictee).GroupKey(), keys[0]) {
		t.Fatal("evictee still holds the survivors' key")
	}
}

// TestEventDrivenCrashRecoveryOverTCP is the fault-tolerance acceptance
// path: a node's connection dies without warning; the hub settles every
// delivery blocked on it and deals peer-down frames to the survivors,
// which cancel whatever the death wedged, evict the dead node via the
// paper's Leave protocol — flow parameters derived from each member's own
// committed session, no coordinator — and converge on a confirmed fresh
// key the victim does not hold. At phase "established" the victim dies
// before the confirmation round, so every survivor's confirm flow is
// genuinely wedged until the peer-down notice cancels it.
func TestEventDrivenCrashRecoveryOverTCP(t *testing.T) {
	for _, phase := range []string{phaseEstablished, phaseConfirmed} {
		t.Run(phase, func(t *testing.T) {
			const n = 4
			ids := nodeIDs(n)
			p := newProc(t, newHub(t), ids, n)
			victim := ids[1]

			keys, err := p.run(scenario{roster: ids, groups: 1, victim: victim, phase: phase})
			if err != nil {
				t.Fatalf("crash scenario (%s): %v", phase, err)
			}
			if keys[0] == nil || bytes.Equal(p.member(victim).GroupKey(), keys[0]) {
				t.Fatal("crashed node still holds the survivors' key")
			}
		})
	}
}

// TestReadyBarrierEvicteeOnlyProcessOverTCP splits the dynamic demo over
// two processes sharing one hub, the second owning only the evictee. Both
// pass the ready-barrier; the survivors' process reports the final key,
// and the evictee's process reports no group at all (it owns no member of
// the final stage), rather than a zero fingerprint.
func TestReadyBarrierEvicteeOnlyProcessOverTCP(t *testing.T) {
	const n = 4
	ids := nodeIDs(n + 1)
	joiner, evictee := ids[n], ids[1]
	addr := newHub(t)
	var rest []string
	for _, id := range ids {
		if id != evictee {
			rest = append(rest, id)
		}
	}
	procs := []*proc{newProc(t, addr, rest, n+1), newProc(t, addr, []string{evictee}, n+1)}
	sc := scenario{roster: ids[:n], groups: 2, joiner: joiner, evictee: evictee}

	keys := make([][][]byte, len(procs))
	errs := make([]error, len(procs))
	var wg sync.WaitGroup
	for i, p := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys[i], errs[i] = p.run(sc)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
	for g := 0; g < sc.groups; g++ {
		if keys[0][g] == nil {
			t.Fatalf("g%02d: survivors' process reported no key", g)
		}
		if keys[1][g] != nil {
			t.Fatalf("g%02d: evictee-only process reported key %x", g, keys[1][g])
		}
		if bytes.Equal(procs[1].member(evictee).GroupKey(), keys[0][g]) {
			t.Fatalf("g%02d: evictee still holds the survivors' key", g)
		}
	}
}

// TestParseCrash covers the -crash flag grammar.
func TestParseCrash(t *testing.T) {
	if v, ph, err := parseCrash("node-02@confirmed"); err != nil || v != "node-02" || ph != "confirmed" {
		t.Fatalf("parseCrash: %q %q %v", v, ph, err)
	}
	for _, bad := range []string{"node-02", "@confirmed", "node-02@", "node-02@nope"} {
		if _, _, err := parseCrash(bad); err == nil {
			t.Errorf("parseCrash(%q) accepted", bad)
		}
	}
	if v, ph, err := parseCrash(""); err != nil || v != "" || ph != "" {
		t.Fatalf("empty -crash: %q %q %v", v, ph, err)
	}
}

// TestParseOwn covers the -own flag grammar.
func TestParseOwn(t *testing.T) {
	ids := []string{"node-01", "node-02", "node-03"}
	got, err := parseOwn("node-03, node-01", ids)
	if err != nil || len(got) != 2 || got[0] != "node-01" || got[1] != "node-03" {
		t.Fatalf("parseOwn: %v %v", got, err)
	}
	if _, err := parseOwn("node-09", ids); err == nil {
		t.Fatal("unknown id accepted")
	}
	if got, err := parseOwn("", ids); err != nil || len(got) != 3 {
		t.Fatalf("default own: %v %v", got, err)
	}
}
