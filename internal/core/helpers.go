package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"idgka/internal/engine"
	"idgka/internal/netsim"
)

// lockstepRuns numbers the drivers' runs. Each run executes under a fresh
// session id, so every member starts it at attempt 0 and the whole run
// shares one envelope.
var lockstepRuns atomic.Uint64

// starter begins one member's flow under the run's session id and returns
// its opening messages.
type starter func(mb *Member, sid string) ([]engine.Outbound, []engine.Event, error)

// errStalled marks an attempt in which the network went quiet before every
// member finished — e.g. a dropped broadcast; the paper's answer is "all
// members retransmit again".
var errStalled = fmt.Errorf("flow stalled: message lost before completion")

// maxSweeps is a livelock backstop far above any protocol's round count.
const maxSweeps = 1 << 10

// runFlowOnce starts the same flow on every member under a fresh session
// id and pumps messages between the machines over the medium until every
// machine commits: each sweep drains every member's inbox, steps the
// machines concurrently (one goroutine per member, as the nodes would
// compute in the field), then transmits whatever the machines emitted.
// The medium carries the paper's payloads: transmit strips the run's
// session envelope and the receive side restores it, so the medium's
// byte accounting (and any fault it injects) sees exactly the
// un-enveloped protocol messages. Retryable protocol failures
// (verification failure, lost messages) surface as engine-retryable
// errors for the caller's retransmission loop. On ANY failure the
// members' flows of the run are aborted, so nothing of it lingers in the
// machines.
func runFlowOnce(net netsim.Medium, members []*Member, start starter) error {
	sid := fmt.Sprintf("lockstep/%d", lockstepRuns.Add(1))
	err := pumpFlow(net, members, sid, start)
	if err != nil {
		for _, mb := range members {
			mb.mach.Abort(sid)
		}
	}
	return err
}

// pumpFlow is runFlowOnce without the failure cleanup.
func pumpFlow(net netsim.Medium, members []*Member, sid string, start starter) error {
	env := engine.Envelope(sid, 0)
	n := len(members)
	outs := make([][]engine.Outbound, n)
	evts := make([][]engine.Event, n)
	errs := make([]error, n)
	done := make([]bool, n)

	// Discard stale traffic from earlier flows a member did not take part
	// in (e.g. merge broadcasts that arrived while it sat attached to the
	// medium but idle); nothing of the current flow can exist yet.
	for _, mb := range members {
		if _, err := net.Recv(mb.ID()); err != nil {
			return err
		}
	}

	forEach(members, func(i int, mb *Member) {
		outs[i], evts[i], errs[i] = start(mb, sid)
	})
	if err := harvest(members, evts, errs, done); err != nil {
		return err
	}
	if err := transmit(net, members, env, outs); err != nil {
		return err
	}

	for sweep := 0; sweep < maxSweeps; sweep++ {
		inboxes := make([][]netsim.Message, n)
		total := 0
		for i, mb := range members {
			msgs, err := net.Recv(mb.ID())
			if err != nil {
				return err
			}
			inboxes[i] = msgs
			total += len(msgs)
		}
		if total == 0 {
			if allDone(done) {
				return nil
			}
			return engine.Retryable(errStalled)
		}
		forEach(members, func(i int, mb *Member) {
			outs[i], evts[i], errs[i] = nil, nil, nil
			for _, msg := range inboxes[i] {
				msg.Payload = append(append(make([]byte, 0, len(env)+len(msg.Payload)), env...), msg.Payload...)
				o, e := mb.mach.Step(msg)
				outs[i] = append(outs[i], o...)
				evts[i] = append(evts[i], e...)
			}
		})
		if err := harvest(members, evts, errs, done); err != nil {
			return err
		}
		if err := transmit(net, members, env, outs); err != nil {
			return err
		}
	}
	return engine.Retryable(errStalled)
}

// runFlowFatal runs a flow that cannot be retransmitted mid-flight: the
// Join/Merge/Confirm protocols change per-member state asymmetrically
// (e.g. the controller may commit the new key before a stall is
// detected), so re-running them against half-updated sessions cannot
// converge. Any failure — including a protocol-retryable one — is
// surfaced stripped of the retryable marker, so callers are not invited
// into a doomed retry. The full re-key flows (initial, partition) retry
// safely via runFlowRetrying instead.
func runFlowFatal(net netsim.Medium, members []*Member, start starter, what string) error {
	err := runFlowOnce(net, members, start)
	if err != nil && IsRetryable(err) {
		return fmt.Errorf("core: %s failed (not retryable mid-flight): %v", what, err)
	}
	return err
}

// runFlowRetrying wraps runFlowOnce in the paper's retransmission loop:
// on a retryable failure every member aborts, inboxes are drained, and
// the flow restarts under a fresh session id with fresh randomness, up
// to the configured retry budget.
func runFlowRetrying(net netsim.Medium, members []*Member, start starter, what string) error {
	retries := members[0].cfg.Retries()
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		err := runFlowOnce(net, members, start)
		if err == nil {
			return nil
		}
		if !IsRetryable(err) {
			return err
		}
		lastErr = err
		drainAll(net, members)
	}
	return fmt.Errorf("core: %s failed after retries: %w", what, lastErr)
}

// forEach runs fn concurrently for every member (one goroutine per node).
func forEach(members []*Member, fn func(int, *Member)) {
	var wg sync.WaitGroup
	for i, mb := range members {
		wg.Add(1)
		go func(i int, mb *Member) {
			defer wg.Done()
			fn(i, mb)
		}(i, mb)
	}
	wg.Wait()
}

// harvest folds per-member step results into the done set, preferring a
// retryable error over a fatal one when both occur in one phase (so the
// orchestrator re-runs rather than aborts). A member whose flow
// establishes a group adopts it as its committed group at once.
func harvest(members []*Member, evts [][]engine.Event, errs []error, done []bool) error {
	var firstFatal error
	var retry error
	for i := range members {
		if errs[i] != nil {
			if IsRetryable(errs[i]) {
				retry = errs[i]
			} else if firstFatal == nil {
				firstFatal = errs[i]
			}
			continue
		}
		for _, ev := range evts[i] {
			switch ev.Kind {
			case engine.EventEstablished:
				done[i] = true
				members[i].commit(ev.SID)
			case engine.EventConfirmed:
				done[i] = true
			case engine.EventFailed:
				if ev.Retryable {
					retry = engine.Retryable(ev.Err)
				} else if firstFatal == nil {
					firstFatal = ev.Err
				}
			}
		}
	}
	if retry != nil {
		return retry
	}
	return firstFatal
}

// transmit sends every emitted message in member order (deterministic for
// the fault injector and the medium's traffic accounting), stripped of
// the run's envelope env.
func transmit(net netsim.Medium, members []*Member, env []byte, outs [][]engine.Outbound) error {
	for i, mb := range members {
		for j, o := range outs[i] {
			if !bytes.HasPrefix(o.Payload, env) {
				return fmt.Errorf("core: %s emitted a %s message outside the run's session", mb.ID(), o.Type)
			}
			outs[i][j].Payload = o.Payload[len(env):]
		}
		if err := engine.SendAll(net, mb.ID(), outs[i]); err != nil {
			return err
		}
	}
	return nil
}

func allDone(done []bool) bool {
	for _, d := range done {
		if !d {
			return false
		}
	}
	return true
}

// drainAll empties members' inboxes between retransmission attempts so a
// stale message cannot poison the next attempt.
func drainAll(net netsim.Medium, members []*Member) {
	for _, mb := range members {
		_, _ = net.Recv(mb.ID())
	}
}

// rosterOf extracts the identity ring from a member slice.
func rosterOf(members []*Member) []string {
	ids := make([]string, len(members))
	for i, m := range members {
		ids[i] = m.ID()
	}
	return ids
}
