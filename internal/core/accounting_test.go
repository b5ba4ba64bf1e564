package core

import (
	"sync"
	"testing"

	"idgka/internal/netsim"
	"idgka/internal/wire"
)

// sentMsg is one payload a member put on the medium.
type sentMsg struct {
	typ      string
	payload  []byte
	stateLen int
}

// recordingMedium wraps the simulated network and records every payload
// the lockstep drivers hand it, by sender.
type recordingMedium struct {
	*netsim.Network
	mu   sync.Mutex
	sent map[string][]sentMsg
}

func (r *recordingMedium) record(from, typ string, payload []byte, stateLen int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sent[from] = append(r.sent[from], sentMsg{typ, append([]byte(nil), payload...), stateLen})
}

func (r *recordingMedium) BroadcastState(from, typ string, payload []byte, stateLen int) error {
	r.record(from, typ, payload, stateLen)
	return r.Network.BroadcastState(from, typ, payload, stateLen)
}

func (r *recordingMedium) SendState(from, to, typ string, payload []byte, stateLen int) error {
	r.record(from, typ, payload, stateLen)
	return r.Network.SendState(from, to, typ, payload, stateLen)
}

// TestLockstepMediumCarriesPaperPayloads: the drivers run enveloped engine
// flows but must hand the medium the paper's messages. Every engine
// payload opens with its sender's id, so a payload whose first wire field
// is anything else still carries the session envelope; and each member's
// metered transmit bytes must be exactly what it put on the medium.
func TestLockstepMediumCarriesPaperPayloads(t *testing.T) {
	net, all := buildGroup(t, 9, nil)
	rec := &recordingMedium{Network: net, sent: map[string][]sentMsg{}}
	groupA, joiner, groupB := all[:5], all[5], all[6:]

	if err := RunInitial(rec, groupA); err != nil {
		t.Fatal(err)
	}
	if err := RunInitial(rec, groupB); err != nil {
		t.Fatal(err)
	}
	if err := RunJoin(rec, groupA, joiner); err != nil {
		t.Fatal(err)
	}
	groupA = append(append([]*Member(nil), groupA...), joiner)
	if err := RunPartition(rec, groupA, []string{"U02", "U04"}); err != nil {
		t.Fatal(err)
	}
	groupA = []*Member{all[0], all[2], all[4], joiner}
	if err := RunMerge(rec, groupA, groupB); err != nil {
		t.Fatal(err)
	}
	merged := append(append([]*Member(nil), groupA...), groupB...)
	if err := ConfirmKey(rec, merged); err != nil {
		t.Fatal(err)
	}
	assertAgreement(t, merged)

	types := map[string]bool{}
	for _, mb := range all {
		var bytes, state int64
		for _, m := range rec.sent[mb.ID()] {
			types[m.typ] = true
			r := wire.NewReader(m.payload)
			if id := r.String(); r.Err() != nil || id != mb.ID() {
				t.Fatalf("%s: %s payload opens with %q, not its sender's id", mb.ID(), m.typ, id)
			}
			bytes += int64(len(m.payload) - m.stateLen)
			state += int64(m.stateLen)
		}
		rep := mb.Meter().Report()
		if rep.BytesTx != bytes || rep.StateTx != state {
			t.Fatalf("%s: metered tx %dB + %dB state, medium carried %dB + %dB state",
				mb.ID(), rep.BytesTx, rep.StateTx, bytes, state)
		}
	}
	for _, typ := range []string{MsgRound1, MsgRound2, MsgJoin1, MsgJoinCtl, MsgJoinLast, MsgJoinFwd,
		MsgLeave1, MsgLeave2, MsgMerge1, MsgMerge2, MsgMerge3, MsgConfirm} {
		if !types[typ] {
			t.Errorf("no %s message reached the medium", typ)
		}
	}
}
