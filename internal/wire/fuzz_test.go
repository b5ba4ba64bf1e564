package wire_test

import (
	"bytes"
	"testing"

	"idgka"
	"idgka/internal/wire"
)

// Reader ops a fuzz input selects, one per byte of its op sequence.
const (
	opBytes = iota
	opString
	opBig
	opUint
	numOps
)

// maxFuzzOps bounds the op sequence one input drives.
const maxFuzzOps = 64

// establishmentPayloads runs one three-member establishment through the
// event-driven session API and returns every packet payload it sent:
// each is a session envelope followed by one round's fields.
func establishmentPayloads(f *testing.F) [][]byte {
	auth, err := idgka.NewAuthority()
	if err != nil {
		f.Fatal(err)
	}
	roster := []string{"fz-01", "fz-02", "fz-03"}
	sessions := map[string]*idgka.Session{}
	for _, id := range roster {
		mb, err := auth.NewMember(id)
		if err != nil {
			f.Fatal(err)
		}
		if sessions[id], err = mb.NewSession("fz/est", roster); err != nil {
			f.Fatal(err)
		}
	}
	var payloads [][]byte
	var queue []idgka.Packet
	drain := func(s *idgka.Session) {
		for _, p := range s.Outbox() {
			payloads = append(payloads, p.Payload)
			queue = append(queue, p)
		}
	}
	for _, id := range roster {
		drain(sessions[id])
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, id := range roster {
			if id != p.From && (p.To == "" || p.To == id) {
				if err := sessions[id].HandleMessage(p); err != nil {
					f.Fatalf("session of %s failed: %v", id, err)
				}
				drain(sessions[id])
			}
		}
	}
	for _, id := range roster {
		if !sessions[id].Done() || sessions[id].Err() != nil {
			f.Fatalf("establishment did not complete at %s: %v", id, sessions[id].Err())
		}
	}
	return payloads
}

// FuzzReader decodes arbitrary bytes with an op sequence taken from the
// fuzz input, then closes the reader. Nothing may panic, Remaining never
// goes negative, every read after the first error returns its zero
// value, and the fields read without error re-encode through Buffer into
// exactly the bytes they consumed. The seeds are the real round payloads
// of an establishment, read as their envelope (sid, attempt) followed by
// length-prefixed fields.
func FuzzReader(f *testing.F) {
	envelope := []byte{opString, opUint}
	asBytes := append(append([]byte(nil), envelope...), bytes.Repeat([]byte{opBytes}, 6)...)
	asBigs := append(append([]byte(nil), envelope...), opString, opBig, opBig, opBig)
	for _, p := range establishmentPayloads(f) {
		f.Add(asBytes, p)
		f.Add(asBigs, p)
	}
	f.Add([]byte{opBytes}, []byte{0x7f, 0xff, 0xff, 0xff, 'x'})
	f.Add([]byte{opBig}, []byte{0, 0, 0, 1, 0})
	f.Add([]byte{opUint, opUint}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})

	f.Fuzz(func(t *testing.T, ops, msg []byte) {
		if len(ops) > maxFuzzOps {
			ops = ops[:maxFuzzOps]
		}
		r := wire.NewReader(msg)
		for i, op := range ops {
			hadErr := r.Err() != nil
			before := len(msg) - r.Remaining()
			field := wire.NewBuffer()
			var zero bool
			switch op % numOps {
			case opBytes:
				v := r.Bytes()
				zero = v == nil
				field.PutBytes(v)
			case opString:
				v := r.String()
				zero = v == ""
				field.PutString(v)
			case opBig:
				v := r.Big()
				zero = v == nil
				field.PutBig(v)
			case opUint:
				v := r.Uint()
				zero = v == 0
				field.PutUint(v)
			}
			if r.Remaining() < 0 {
				t.Fatalf("op %d: Remaining() = %d", i, r.Remaining())
			}
			if hadErr && !zero {
				t.Fatalf("op %d (%d) returned a value after the error %v", i, op%numOps, r.Err())
			}
			if r.Err() != nil {
				continue
			}
			consumed := msg[before : len(msg)-r.Remaining()]
			if !bytes.Equal(field.Bytes(), consumed) {
				t.Fatalf("op %d (%d) re-encodes as %x, consumed %x", i, op%numOps, field.Bytes(), consumed)
			}
		}
		err := r.Close()
		switch {
		case r.Err() != nil:
			if err != r.Err() {
				t.Fatalf("Close() = %v, want the read error %v", err, r.Err())
			}
		case r.Remaining() == 0:
			if err != nil {
				t.Fatalf("Close() = %v on a fully consumed message", err)
			}
		case err == nil:
			t.Fatalf("Close() accepted %d trailing bytes", r.Remaining())
		}
	})
}
