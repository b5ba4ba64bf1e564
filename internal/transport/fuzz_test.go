package transport

import (
	"bytes"
	"reflect"
	"testing"

	"idgka/internal/core"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
)

// FuzzReadFrame feeds arbitrary bytes to the frame reader every hub and
// router runs on its sockets: each input is either rejected with an
// error or read, and a frame that is read survives a writeFrame →
// readFrame round trip unchanged. The seeds are the frames of a real
// exchange: registration, a protocol message carrying a real engine
// envelope, its ack, delivery confirmations and a peer-down notice.
func FuzzReadFrame(f *testing.F) {
	set := params.Default()
	ring := []string{"node-01", "node-02", "node-03"}
	sk, err := gq.Extract(set.RSA, ring[0])
	if err != nil {
		f.Fatal(err)
	}
	mb, err := core.NewMember(core.Config{Set: set.Public()}, sk, nil)
	if err != nil {
		f.Fatal(err)
	}
	outs, _, err := mb.Machine().StartInitial("fuzz/est", ring)
	if err != nil || len(outs) == 0 {
		f.Fatalf("no opening traffic: %v", err)
	}
	seeds := []*frame{
		{Kind: kindHello, From: ring[0]},
		{Kind: kindDone},
		{Kind: kindMsg, Seq: 1, From: ring[0], Type: outs[0].Type, StateLen: uint64(outs[0].StateLen), Payload: outs[0].Payload},
		{Kind: kindAck, Seq: 1, To: ring[0]},
		{Kind: kindDone, Seq: 1},
		{Kind: kindDone, Seq: 2, From: ring[2]},
		{Kind: kindDown, From: ring[2]},
	}
	for _, fr := range seeds {
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, in []byte) {
		fr, err := readFrame(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			t.Fatal(err)
		}
		again, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("re-reading a written frame: %v", err)
		}
		if !reflect.DeepEqual(fr, again) {
			t.Fatalf("round trip changed the frame: %+v -> %+v", fr, again)
		}
	})
}
