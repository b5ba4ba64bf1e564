package engine_test

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"
	"reflect"
	"testing"

	"idgka/internal/bdkey"
	"idgka/internal/engine"
	"idgka/internal/meter"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
	"idgka/internal/wire"
)

// ctrReader is a deterministic randomness stream (SHA-256 in counter
// mode) so two protocol runs draw identical keying material and their
// traffic and meters can be compared byte for byte.
type ctrReader struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

func newCtrReader(seed string) *ctrReader {
	return &ctrReader{seed: sha256.Sum256([]byte(seed))}
}

func (r *ctrReader) Read(p []byte) (int, error) {
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

// accelNodes builds one machine per id with the given accel config and a
// shared deterministic randomness stream.
func accelNodes(t testing.TB, ids []string, seed string, accel engine.AccelConfig) map[string]*node {
	t.Helper()
	set := params.Default()
	cfg := engine.Config{Set: set.Public(), Rand: newCtrReader(seed), Accel: accel}
	nodes := map[string]*node{}
	for _, id := range ids {
		sk, err := gq.Extract(set.RSA, id)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := engine.NewMachine(cfg, sk, meter.New())
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = &node{mc: mc}
	}
	return nodes
}

// pumpRecordingX drains the bus like bus.pump while recording, per
// session id, the X value of every round-2 broadcast it delivers
// (enveloped m'_i = sid ‖ attempt ‖ U_i ‖ X_i ‖ s_i).
func pumpRecordingX(b *bus, xs map[string]map[string]*big.Int) {
	for len(b.queue) > 0 {
		d := b.queue[0]
		b.queue = b.queue[1:]
		if d.msg.Type == engine.MsgRound2 || d.msg.Type == engine.MsgLeave2 {
			r := wire.NewReader(d.msg.Payload)
			sid := r.String()
			_ = r.Uint() // attempt
			from := r.String()
			if xs[sid] == nil {
				xs[sid] = map[string]*big.Int{}
			}
			xs[sid][from] = r.Big()
		}
		nd := b.nodes[d.to]
		outs, evts := nd.mc.Step(d.msg)
		nd.record(evts)
		b.send(d.to, outs)
	}
}

// assertPaperKey checks the key the ring members committed for session
// sid against the paper: equation (3) in its closed form
// g^{Σ r_i r_{i+1}} over the members' committed exponents
// (bdkey.DirectKey), and every member's bdkey.Key recomputed from its
// committed z view and the recorded X values.
func assertPaperKey(t *testing.T, nodes map[string]*node, member, sid string, xs map[string]*big.Int) {
	t.Helper()
	sg := params.Default().Schnorr
	roster := nodes[member].mc.Session(sid).Roster
	n := len(roster)
	rs := make([]*big.Int, n)
	ring := make([]*big.Int, n)
	for i, id := range roster {
		rs[i] = nodes[id].mc.Session(sid).R
		if ring[i] = xs[id]; ring[i] == nil {
			t.Fatalf("%s: no round-2 X recorded for %s", sid, id)
		}
	}
	want := bdkey.DirectKey(sg.G, rs, sg.Q, sg.P)
	for i, id := range roster {
		g := nodes[id].mc.Session(sid)
		if g.Key.Cmp(want) != 0 {
			t.Fatalf("%s: %s's key is not g^{Σ r_i r_(i+1)}", sid, id)
		}
		k, err := bdkey.Key(i, g.R, g.Z[roster[(i-1+n)%n]], ring, sg.P)
		if err != nil {
			t.Fatal(err)
		}
		if k.Cmp(g.Key) != 0 {
			t.Fatalf("%s: %s's key differs from bdkey.Key over the recorded X values", sid, id)
		}
	}
}

// runLifecycle drives establish + leave over a deterministic bus, checks
// both committed keys against the paper-literal oracles, and returns the
// final per-member meter reports.
func runLifecycle(t *testing.T, nodes map[string]*node, ring []string) map[string]meter.Report {
	t.Helper()
	xs := map[string]map[string]*big.Int{}
	b := newBus(t, nodes, ring)
	for _, id := range ring {
		id := id
		b.start(id, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
			return mc.StartInitial("acc/est", ring)
		})
	}
	pumpRecordingX(b, xs)
	assertSession(t, nodes, ring, "acc/est")
	assertPaperKey(t, nodes, ring[0], "acc/est", xs["acc/est"])

	survivors, refresh, err := engine.PlanLeave(nodes[ring[0]].mc.Session("acc/est"), []string{ring[1]})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range survivors {
		id := id
		b.start(id, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
			return mc.StartPartition("acc/leave", "acc/est", survivors, refresh)
		})
	}
	pumpRecordingX(b, xs)
	assertSession(t, nodes, survivors, "acc/leave")
	assertPaperKey(t, nodes, survivors[0], "acc/leave", xs["acc/leave"])

	reports := map[string]meter.Report{}
	for id, nd := range nodes {
		reports[id] = nd.mc.Meter().Report()
	}
	return reports
}

// TestAccelTransparent runs the same seeded lifecycle with the
// acceleration layer off and fully on. Both runs share one key path, so
// each is checked against the paper-literal oracles (runLifecycle); the
// committed keys and every member's operation/byte meters must also be
// bit-identical — acceleration must never change what the protocol
// computes or what the paper's accounting charges.
func TestAccelTransparent(t *testing.T) {
	ring := []string{"A01", "A02", "A03", "A04", "A05"}

	plain := accelNodes(t, ring, "accel-transparency", engine.AccelConfig{})
	plainReports := runLifecycle(t, plain, ring)

	accel := accelNodes(t, ring, "accel-transparency",
		engine.AccelConfig{Precompute: true, VerifyWorkers: 4})
	accelReports := runLifecycle(t, accel, ring)

	for _, id := range ring {
		if !reflect.DeepEqual(plainReports[id], accelReports[id]) {
			t.Fatalf("%s: meters diverge between plain and accelerated runs:\nplain: %+v\naccel: %+v",
				id, plainReports[id], accelReports[id])
		}
	}
	plainKey := plain[ring[0]].mc.Session("acc/leave").Key
	accelKey := accel[ring[0]].mc.Session("acc/leave").Key
	if plainKey.Cmp(accelKey) != 0 {
		t.Fatal("group keys diverge between plain and accelerated runs")
	}
}

// TestAccelWorkersOnly exercises the worker pool without precomputation
// (the knobs are independent) over a larger ring.
func TestAccelWorkersOnly(t *testing.T) {
	ring := make([]string, 8)
	for i := range ring {
		ring[i] = string(rune('a'+i)) + "-worker"
	}
	nodes := accelNodes(t, ring, "workers-only", engine.AccelConfig{VerifyWorkers: 3})
	b := newBus(t, nodes, ring)
	for _, id := range ring {
		id := id
		b.start(id, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
			return mc.StartInitial("w/est", ring)
		})
	}
	b.pump()
	assertSession(t, nodes, ring, "w/est")
}

// TestAccelRejectsCorruptRound2 checks the parallel verification path
// still fails closed: a corrupted response must surface the retryable
// batch-verification failure on every member.
func TestAccelRejectsCorruptRound2(t *testing.T) {
	ring := []string{"C01", "C02", "C03"}
	nodes := accelNodes(t, ring, "corrupt", engine.AccelConfig{Precompute: true, VerifyWorkers: 4})
	b := newBus(t, nodes, ring)
	corrupt := func(msg *busDelivery) {
		if msg.msg.Type == engine.MsgRound2 && msg.msg.From == "C02" {
			msg.msg.Payload = append([]byte(nil), msg.msg.Payload...)
			msg.msg.Payload[len(msg.msg.Payload)-1] ^= 0x01
		}
	}
	for _, id := range ring {
		id := id
		b.start(id, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
			return mc.StartInitial("c/est", ring)
		})
	}
	for len(b.queue) > 0 {
		d := b.queue[0]
		b.queue = b.queue[1:]
		corrupt(&d)
		nd := b.nodes[d.to]
		outs, evts := nd.mc.Step(d.msg)
		nd.record(evts)
		b.send(d.to, outs)
	}
	sawFailure := false
	for _, nd := range nodes {
		for _, ev := range nd.failures() {
			sawFailure = true
			if !ev.Retryable {
				t.Fatalf("corruption surfaced as non-retryable: %v", ev.Err)
			}
		}
	}
	if !sawFailure {
		t.Fatal("corrupted round-2 message went unnoticed")
	}
}
