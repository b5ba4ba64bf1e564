package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"idgka"
	"idgka/internal/engine"
	"idgka/internal/meter"
	"idgka/internal/serve"
	"idgka/internal/transport"
)

// stack is one deployment of the serving layers: a serve.Host holding
// every hosted member, and either the TCP hub (one link per member on
// 127.0.0.1) or an in-process loopback that fans each broadcast out to the
// sender's ring only. The benchmark's own calls into the layers — Host.Start,
// Host.Deliver, Router.BroadcastState/SendState and Router.RecvWait — are
// where the tracer, when armed, records its spans.
type stack struct {
	host    *serve.Host
	ids     []string
	members map[string]*idgka.Member
	// radio holds each member's link meter: the Session API leaves radio
	// accounting to the medium, so the router (TCP) or the loopback charges
	// message and byte traffic here.
	radio map[string]*meter.Meter

	hub    *transport.Hub
	router *transport.Router
	pumps  sync.WaitGroup

	mu sync.RWMutex
	// rings scopes loopback broadcasts: session id → ring.
	rings map[string][]string

	tr atomic.Pointer[tracer]
}

// newStack builds a host over TCP or loopback with the given members.
func newStack(auth *idgka.Authority, ids []string, tcp bool, mcfg idgka.Config, hcfg serve.Config) (*stack, error) {
	s := &stack{
		ids:     ids,
		members: map[string]*idgka.Member{},
		radio:   map[string]*meter.Meter{},
		rings:   map[string][]string{},
	}
	for _, id := range ids {
		s.radio[id] = meter.New()
	}
	s.host = serve.NewHost(hcfg, s.transmit)
	for _, id := range ids {
		mb, err := auth.NewMemberWithConfig(id, mcfg)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("member %s: %w", id, err)
		}
		if err := s.host.AddMember(mb); err != nil {
			s.close()
			return nil, err
		}
		s.members[id] = mb
	}
	if !tcp {
		return s, nil
	}
	hub, err := transport.NewHub("127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.hub = hub
	s.router = transport.NewRouter(hub.Addr())
	for _, id := range ids {
		if err := s.router.Attach(id, s.radio[id]); err != nil {
			s.close()
			return nil, err
		}
		s.pumps.Add(1)
		go s.pump(id)
	}
	return s, nil
}

// close tears the stack down: the host first (its runs are settled), then
// the links, whose closure ends every pump, then the hub.
func (s *stack) close() {
	s.host.Close()
	if s.router != nil {
		s.router.Close()
	}
	s.pumps.Wait()
	if s.hub != nil {
		_ = s.hub.Close()
	}
}

// transmit is the host's Transmit callback.
func (s *stack) transmit(from string, p idgka.Packet) error {
	if s.router == nil {
		return s.loopback(from, p)
	}
	tr := s.tr.Load()
	var t0 time.Time
	if tr != nil {
		t0 = tr.sendStart(from, p)
	}
	var err error
	if p.To == "" {
		err = s.router.BroadcastState(from, p.Type, p.Payload, p.StateLen)
	} else {
		err = s.router.SendState(from, p.To, p.Type, p.Payload, p.StateLen)
	}
	if tr != nil {
		tr.sendEnd(from, p, t0, err)
	}
	return err
}

// loopback delivers in-process: unicasts to their addressee, broadcasts to
// the sender's ring, with the radio charged as the router would.
func (s *stack) loopback(from string, p idgka.Packet) error {
	s.radio[from].Tx(len(p.Payload))
	s.radio[from].TxState(p.StateLen)
	if p.To != "" {
		return s.deliver(p.To, p)
	}
	sid := engine.EnvelopeSID(p.Payload)
	s.mu.RLock()
	ring := s.rings[sid]
	s.mu.RUnlock()
	if ring == nil {
		return fmt.Errorf("loopback: no ring for session %q", sid)
	}
	var errs []error
	for _, id := range ring {
		if id != from {
			errs = append(errs, s.deliver(id, p))
		}
	}
	return errors.Join(errs...)
}

// deliver hands one inbound packet to the host on behalf of member to.
func (s *stack) deliver(to string, p idgka.Packet) error {
	if s.router == nil {
		s.radio[to].Rx(len(p.Payload))
		s.radio[to].RxState(p.StateLen)
	}
	tr := s.tr.Load()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	err := s.host.Deliver(to, p)
	if tr != nil {
		tr.deliver(p.Payload, t0, time.Now())
	}
	return err
}

// pump drains one member's hub link into the host until the link closes.
func (s *stack) pump(id string) {
	defer s.pumps.Done()
	for {
		msgs, err := s.router.RecvWait(id)
		if err != nil {
			return
		}
		if tr := s.tr.Load(); tr != nil {
			tr.recv(msgs)
		}
		for _, m := range msgs {
			_ = s.deliver(id, idgka.Packet{From: m.From, To: m.To, Type: m.Type, Payload: m.Payload})
		}
	}
}

func (s *stack) setRing(sid string, ring []string) {
	if s.router != nil {
		return
	}
	s.mu.Lock()
	s.rings[sid] = ring
	s.mu.Unlock()
}

func (s *stack) dropRing(sid string) {
	if s.router != nil {
		return
	}
	s.mu.Lock()
	delete(s.rings, sid)
	s.mu.Unlock()
}

// resetMeters zeroes every member's operation meter and link meter.
func (s *stack) resetMeters() {
	for _, id := range s.ids {
		s.members[id].ResetReport()
		s.radio[id].Reset()
	}
}

// meterTotals sums every member's operation meter with its link meter.
func (s *stack) meterTotals() meterTotals {
	var t meterTotals
	for _, id := range s.ids {
		t.add(s.members[id].Report())
		t.add(s.radio[id].Report())
	}
	return t
}
