package engine_test

import (
	"testing"

	"idgka/internal/engine"
	"idgka/internal/netsim"
	"idgka/internal/wire"
)

// TestOutboundSIDAndEnvelopePeek: enveloped outbounds carry their session
// id both in the payload envelope and in the SID field, and EnvelopeSID
// recovers the former without consuming the payload.
func TestOutboundSIDAndEnvelopePeek(t *testing.T) {
	roster := []string{"env-01", "env-02"}
	nodes := buildNodes(t, roster)
	outs, _, err := nodes["env-01"].mc.StartInitial("sid-x", roster)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) == 0 {
		t.Fatal("StartInitial emitted nothing")
	}
	for _, o := range outs {
		if o.SID != "sid-x" {
			t.Fatalf("Outbound.SID = %q, want sid-x", o.SID)
		}
		if got := engine.EnvelopeSID(o.Payload); got != "sid-x" {
			t.Fatalf("EnvelopeSID = %q, want sid-x", got)
		}
	}
	if got := engine.EnvelopeSID([]byte{0xff}); got != "" {
		t.Fatalf("EnvelopeSID on garbage = %q, want empty", got)
	}

}

// TestBufferedAndAbort: early traffic for an unstarted session is
// reported by Buffered and dropped by Abort.
func TestBufferedAndAbort(t *testing.T) {
	roster := []string{"buf-01", "buf-02"}
	nodes := buildNodes(t, roster)
	mc := nodes["buf-01"].mc
	env := wire.NewBuffer().PutString("later").PutUint(0).Bytes()
	mc.Step(netsim.Message{From: "buf-02", Type: engine.MsgRound1, Payload: append(env, 0x01)})
	if got := mc.Buffered("later"); got != 1 {
		t.Fatalf("Buffered = %d, want 1", got)
	}
	if mc.ActiveFlow("later") {
		t.Fatal("unstarted session reported as an active flow")
	}
	mc.Abort("later")
	if got := mc.Buffered("later"); got != 0 {
		t.Fatalf("Buffered after Abort = %d, want 0", got)
	}
}
