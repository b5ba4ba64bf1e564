package engine_test

import (
	"fmt"
	"slices"
	"testing"

	"idgka/internal/engine"
	"idgka/internal/netsim"
	"idgka/internal/wire"
)

// FuzzEnvelopeSID feeds arbitrary payloads to the envelope peek every
// serve layer runs on inbound traffic before any authentication: it must
// never panic, and a session id it reports fits inside the payload. The
// seeds are the real envelopes of an establishment and its confirmation.
func FuzzEnvelopeSID(f *testing.F) {
	ring := []string{"fz-01", "fz-02", "fz-03"}
	nodes := buildNodes(f, ring)
	var queue []netsim.Message
	emit := func(from string, outs []engine.Outbound) {
		for _, o := range outs {
			f.Add(o.Payload)
			queue = append(queue, netsim.Message{From: from, To: o.To, Type: o.Type, Payload: o.Payload})
		}
	}
	flow := func(start func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error)) {
		for _, id := range ring {
			outs, _, err := start(nodes[id].mc)
			if err != nil {
				f.Fatalf("start on %s: %v", id, err)
			}
			emit(id, outs)
		}
		for len(queue) > 0 {
			msg := queue[0]
			queue = queue[1:]
			for _, id := range ring {
				if id != msg.From && (msg.To == "" || msg.To == id) {
					outs, _ := nodes[id].mc.Step(msg)
					emit(id, outs)
				}
			}
		}
	}
	flow(func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
		return mc.StartInitial("fuzz/est", ring)
	})
	flow(func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
		return mc.StartConfirm("fuzz/cfm", "fuzz/est")
	})
	f.Add([]byte(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})

	f.Fuzz(func(t *testing.T, payload []byte) {
		if sid := engine.EnvelopeSID(payload); len(sid) >= len(payload) && sid != "" {
			t.Fatalf("EnvelopeSID read %d bytes of sid from a %d-byte payload", len(sid), len(payload))
		}
	})
}

// FuzzStep feeds arbitrary inner payloads, under a valid envelope for a
// live session and a Type drawn from the protocol's message set, into a
// machine that is mid-establishment or mid-confirmation. Every flow's
// round parser is reachable this way. Step must never panic, every
// failure must surface as an EventFailed of that session, and the
// machine's bookkeeping must stay consistent: nothing of a live attempt
// is buffered, and the flow is active exactly until a terminal event.
// The seeds are the real rounds of an establishment and its
// confirmation, stripped of their envelopes.
func FuzzStep(f *testing.F) {
	types := []string{
		engine.MsgRound1, engine.MsgRound2, engine.MsgJoin1, engine.MsgJoinCtl,
		engine.MsgJoinLast, engine.MsgJoinFwd, engine.MsgLeave1, engine.MsgLeave2,
		engine.MsgMerge1, engine.MsgMerge2, engine.MsgMerge3, engine.MsgConfirm,
	}
	ring := []string{"fs-01", "fs-02", "fs-03"}
	nodes := buildNodes(f, ring)
	// sent records every delivered round by type and sender, without its
	// envelope.
	sent := map[string]map[string][]byte{}
	const (
		phaseInitial = iota
		phaseConfirm
	)
	var queue []netsim.Message
	flow := func(phase uint8, start func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error)) {
		emit := func(from string, outs []engine.Outbound) {
			for _, o := range outs {
				queue = append(queue, netsim.Message{From: from, To: o.To, Type: o.Type, Payload: o.Payload})
				r := wire.NewReader(o.Payload)
				_, _ = r.String(), r.Uint()
				inner := o.Payload[len(o.Payload)-r.Remaining():]
				if sent[o.Type] == nil {
					sent[o.Type] = map[string][]byte{}
				}
				sent[o.Type][from] = inner
				for ti, typ := range types {
					if typ == o.Type {
						f.Add(phase, uint8(ti), uint8(slices.Index(ring, from)), inner)
					}
				}
			}
		}
		for _, id := range ring {
			outs, _, err := start(nodes[id].mc)
			if err != nil {
				f.Fatalf("start on %s: %v", id, err)
			}
			emit(id, outs)
		}
		for len(queue) > 0 {
			msg := queue[0]
			queue = queue[1:]
			for _, id := range ring {
				if id != msg.From && (msg.To == "" || msg.To == id) {
					outs, _ := nodes[id].mc.Step(msg)
					emit(id, outs)
				}
			}
		}
	}
	flow(phaseInitial, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
		return mc.StartInitial("fs/est", ring)
	})
	flow(phaseConfirm, func(mc *engine.Machine) ([]engine.Outbound, []engine.Event, error) {
		return mc.StartConfirm("fs/cfm", "fs/est")
	})
	f.Add(uint8(phaseInitial), uint8(0), uint8(1), []byte(nil))
	f.Add(uint8(phaseConfirm), uint8(11), uint8(2), []byte{0xff, 0xff, 0xff, 0xff, 'x'})

	mc := nodes[ring[0]].mc
	runs := 0
	f.Fuzz(func(t *testing.T, phase, typ, from uint8, inner []byte) {
		runs++
		sid := fmt.Sprintf("fs/run-%d", runs)
		envelope := func(typ, from string, inner []byte) netsim.Message {
			return netsim.Message{From: from, Type: typ, Payload: append(engine.Envelope(sid, 0), inner...)}
		}
		// Start the flow and feed it the second member's real round, so
		// the fuzzed message can complete (or break) a half-full round.
		var err error
		success := engine.EventEstablished
		switch phase % 2 {
		case phaseInitial:
			_, _, err = mc.StartInitial(sid, ring)
			if err == nil {
				mc.Step(envelope(engine.MsgRound1, ring[1], sent[engine.MsgRound1][ring[1]]))
			}
		case phaseConfirm:
			success = engine.EventConfirmed
			_, _, err = mc.StartConfirm(sid, "fs/est")
			if err == nil {
				mc.Step(envelope(engine.MsgConfirm, ring[1], sent[engine.MsgConfirm][ring[1]]))
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		defer mc.Abort(sid)

		msg := envelope(types[int(typ)%len(types)], ring[int(from)%len(ring)], inner)
		outs, evts := mc.Step(msg)
		terminal := false
		for _, ev := range evts {
			if ev.SID != sid {
				t.Fatalf("event for session %q, want %q", ev.SID, sid)
			}
			switch ev.Kind {
			case engine.EventFailed:
				if ev.Err == nil {
					t.Fatal("EventFailed without an error")
				}
				terminal = true
			case success:
				terminal = true
			default:
				t.Fatalf("unexpected event kind %d", ev.Kind)
			}
		}
		for _, o := range outs {
			if o.SID != sid || engine.EnvelopeSID(o.Payload) != sid {
				t.Fatalf("outbound of session %q (envelope %q), want %q", o.SID, engine.EnvelopeSID(o.Payload), sid)
			}
		}
		if got := mc.Buffered(sid); got != 0 {
			t.Fatalf("Buffered = %d for the live attempt, want 0", got)
		}
		if mc.ActiveFlow(sid) == terminal {
			t.Fatalf("ActiveFlow = %v after terminal = %v", mc.ActiveFlow(sid), terminal)
		}
	})
}
