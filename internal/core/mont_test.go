package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"testing"

	"idgka/internal/bdkey"
	"idgka/internal/engine"
	"idgka/internal/meter"
	"idgka/internal/netsim"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
	"idgka/internal/wire"
)

// montCtrReader is a deterministic randomness stream (SHA-256 in counter
// mode). Each member gets its own stream seeded by its identity, so the
// keying material two runs draw is identical regardless of how the
// orchestrators interleave the members' goroutines.
type montCtrReader struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

func newMontCtrReader(seed string) *montCtrReader {
	return &montCtrReader{seed: sha256.Sum256([]byte(seed))}
}

func (r *montCtrReader) Read(p []byte) (int, error) {
	for len(r.buf) < len(p) {
		var block [40]byte
		copy(block[:32], r.seed[:])
		binary.BigEndian.PutUint64(block[32:], r.ctr)
		r.ctr++
		sum := sha256.Sum256(block[:])
		r.buf = append(r.buf, sum[:]...)
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

// xTap is a netsim.Network that also records the X value of every
// round-2 broadcast (initial and Leave/Partition flows), so the tests can
// recompute each member's key with the paper-literal bdkey.Key.
type xTap struct {
	*netsim.Network
	xs map[string]*big.Int
}

func newXTap() *xTap { return &xTap{Network: netsim.New(), xs: map[string]*big.Int{}} }

func (n *xTap) BroadcastState(from, typ string, payload []byte, stateLen int) error {
	if typ == engine.MsgRound2 || typ == engine.MsgLeave2 {
		// Lockstep flows run unenveloped: m'_i = U_i ‖ X_i ‖ s_i.
		r := wire.NewReader(payload)
		_ = r.String() // U_i
		n.xs[from] = r.Big()
	}
	return n.Network.BroadcastState(from, typ, payload, stateLen)
}

// assertPaperKey checks the members' committed key against the paper's
// formulas: equation (3) in its closed form g^{Σ r_i r_{i+1}} over the
// exponents the members committed (bdkey.DirectKey), and — when the flow
// was a BD ring and its X values were recorded — every member's
// bdkey.Key recomputed from its committed z view and those X values.
func assertPaperKey(t *testing.T, members []*Member, xs map[string]*big.Int, what string) {
	t.Helper()
	sg := params.Default().Schnorr
	byID := map[string]*Member{}
	for _, mb := range members {
		byID[mb.ID()] = mb
	}
	roster := members[0].Session().Roster
	if len(roster) != len(members) {
		t.Fatalf("%s: roster of %d for %d members", what, len(roster), len(members))
	}
	rs := make([]*big.Int, len(roster))
	for i, id := range roster {
		rs[i] = byID[id].Session().R
	}
	key := members[0].Key()
	if key.Cmp(bdkey.DirectKey(sg.G, rs, sg.Q, sg.P)) != 0 {
		t.Fatalf("%s: committed key is not g^{Σ r_i r_(i+1)}", what)
	}
	if xs == nil {
		return
	}
	ring := make([]*big.Int, len(roster))
	for i, id := range roster {
		if ring[i] = xs[id]; ring[i] == nil {
			t.Fatalf("%s: no round-2 X recorded for %s", what, id)
		}
	}
	n := len(roster)
	for i, id := range roster {
		s := byID[id].Session()
		k, err := bdkey.Key(i, s.R, s.Z[roster[(i-1+n)%n]], ring, sg.P)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if k.Cmp(key) != 0 {
			t.Fatalf("%s: %s's key differs from bdkey.Key over the recorded X values", what, id)
		}
	}
}

// runFiveFlows drives all five protocol flows — initial, join, leave,
// merge, partition — with the given acceleration config and per-member
// deterministic randomness, running the explicit key-confirmation round
// after every flow, checks every committed key against the paper's
// formulas (assertPaperKey), and returns the five keys in order. Join and
// Merge fold keys without a BD round 2, so their oracle is the closed
// form alone.
func runFiveFlows(t *testing.T, accel engine.AccelConfig, seed string) []*big.Int {
	t.Helper()
	set := params.Default()
	newMb := func(net *xTap, id string) *Member {
		cfg := Config{Set: set.Public(), Rand: newMontCtrReader(seed + "/" + id), Accel: accel}
		sk, err := gq.Extract(set.RSA, id)
		if err != nil {
			t.Fatal(err)
		}
		m := meter.New()
		mb, err := NewMember(cfg, sk, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Register(id, m); err != nil {
			t.Fatal(err)
		}
		return mb
	}
	confirm := func(net *xTap, members []*Member, what string, ringFlow bool) *big.Int {
		if err := ConfirmKey(net, members); err != nil {
			t.Fatalf("%s: key confirmation: %v", what, err)
		}
		key := assertAgreement(t, members)
		xs := net.xs
		if !ringFlow {
			xs = nil
		}
		assertPaperKey(t, members, xs, what)
		net.xs = map[string]*big.Int{}
		return key
	}

	var keys []*big.Int
	net := newXTap()
	var group []*Member
	for i := 0; i < 5; i++ {
		group = append(group, newMb(net, fmt.Sprintf("M%02d", i+1)))
	}
	if err := RunInitial(net, group); err != nil {
		t.Fatalf("initial: %v", err)
	}
	keys = append(keys, confirm(net, group, "initial", true))

	joiner := newMb(net, "M06")
	if err := RunJoin(net, group, joiner); err != nil {
		t.Fatalf("join: %v", err)
	}
	group = append(group, joiner)
	keys = append(keys, confirm(net, group, "join", false))

	if err := RunLeave(net, group, "M02"); err != nil {
		t.Fatalf("leave: %v", err)
	}
	var g2 []*Member
	for _, mb := range group {
		if mb.ID() != "M02" {
			g2 = append(g2, mb)
		}
	}
	group = g2
	keys = append(keys, confirm(net, group, "leave", true))

	netB := newXTap()
	var groupB []*Member
	for i := 0; i < 3; i++ {
		groupB = append(groupB, newMb(netB, fmt.Sprintf("N%02d", i+1)))
	}
	if err := RunInitial(netB, groupB); err != nil {
		t.Fatalf("merge: group B initial: %v", err)
	}
	for _, mb := range groupB {
		if err := net.Register(mb.ID(), mb.Meter()); err != nil {
			t.Fatal(err)
		}
	}
	if err := RunMerge(net, group, groupB); err != nil {
		t.Fatalf("merge: %v", err)
	}
	group = append(group, groupB...)
	keys = append(keys, confirm(net, group, "merge", false))

	evict := []string{group[1].ID(), group[3].ID()}
	if err := RunPartition(net, group, evict); err != nil {
		t.Fatalf("partition: %v", err)
	}
	var g3 []*Member
	for _, mb := range group {
		if mb.ID() != evict[0] && mb.ID() != evict[1] {
			g3 = append(g3, mb)
		}
	}
	keys = append(keys, confirm(net, g3, "partition", true))
	return keys
}

// TestMontTransparent pins the engine's Montgomery-domain key arithmetic
// to the paper across all five flows. Plain and accelerated runs share
// that one key path, so each run is checked against the paper-literal
// oracles (assertPaperKey); with identical randomness the committed keys
// (and therefore the confirm digests, which every member cross-checks in
// ConfirmKey) must also be bit-identical whether the acceleration layer
// is off or fully on.
func TestMontTransparent(t *testing.T) {
	flows := []string{"initial", "join", "leave", "merge", "partition"}
	plain := runFiveFlows(t, engine.AccelConfig{}, "mont-transparency")
	accel := runFiveFlows(t, engine.AccelConfig{Precompute: true, VerifyWorkers: 4}, "mont-transparency")
	if len(plain) != len(flows) || len(accel) != len(flows) {
		t.Fatalf("expected %d keys per run, got %d plain / %d accelerated", len(flows), len(plain), len(accel))
	}
	for i, name := range flows {
		if plain[i].Cmp(accel[i]) != 0 {
			t.Errorf("%s: keys diverge between math/big and Montgomery runs", name)
		}
	}
}
