package main

import (
	"bytes"
	"testing"
)

// TestServeMultiGroupOverTCP: one process hosts several groups (rotated
// rings over all nodes) concurrently over one real hub; every group
// converges on an agreed, confirmed key.
func TestServeMultiGroupOverTCP(t *testing.T) {
	const n, groups = 3, 4
	ids := nodeIDs(n)
	p := newProc(t, newHub(t), ids, n)
	keys, err := p.run(scenario{roster: ids, groups: groups})
	if err != nil {
		t.Fatalf("multi-group run: %v", err)
	}
	if len(keys) != groups {
		t.Fatalf("got %d keys, want %d", len(keys), groups)
	}
	// Rotated rings have distinct controllers (and fresh randomness):
	// no two groups may share a key.
	seen := map[string]bool{}
	for g, key := range keys {
		if key == nil || seen[string(key)] {
			t.Fatalf("group %d has no key or reuses another group's", g)
		}
		seen[string(key)] = true
	}
}

// TestServeCrashRecoveryOverTCP: the victim dies mid-deployment; every
// hosted group independently evicts it and converges on a fresh
// confirmed key the victim does not hold.
func TestServeCrashRecoveryOverTCP(t *testing.T) {
	for _, phase := range []string{phaseEstablished, phaseConfirmed} {
		t.Run(phase, func(t *testing.T) {
			const n, groups = 3, 3
			ids := nodeIDs(n)
			p := newProc(t, newHub(t), ids, n)
			victim := ids[1]
			keys, err := p.run(scenario{roster: ids, groups: groups, victim: victim, phase: phase})
			if err != nil {
				t.Fatalf("multi-group crash run (%s): %v", phase, err)
			}
			if len(keys) != groups {
				t.Fatalf("got %d keys, want %d", len(keys), groups)
			}
			for g, key := range keys {
				if key == nil || bytes.Equal(p.member(victim).GroupKey(), key) {
					t.Fatalf("group %d: no key, or the victim still holds it", g)
				}
			}
		})
	}
}
