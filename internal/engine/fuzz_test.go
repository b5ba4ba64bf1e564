package engine_test

import (
	"testing"

	"idgka/internal/engine"
	"idgka/internal/netsim"
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
