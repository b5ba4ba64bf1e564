package main

import (
	"bytes"
	"errors"
	"time"

	"idgka"
	"idgka/internal/serve"
)

// phaseTimeout abandons a phase whose runs have not all settled; the op
// then counts as failed.
const phaseTimeout = 10 * time.Second

// failKind classifies why an op failed. The first three are keying
// failures the run tolerates and counts; the last three are correctness
// violations that fail the run.
type failKind uint8

const (
	failNone failKind = iota
	failStart
	failError
	failTimeout
	failBrokenGroup
	failNilKey
	failSplitKey
	failUnrotated
)

var failNames = map[failKind]string{
	failStart:       "start",
	failError:       "error",
	failTimeout:     "timeout",
	failBrokenGroup: "broken-group",
	failNilKey:      "nil-key",
	failSplitKey:    "split-key",
	failUnrotated:   "unrotated-key",
}

func (f failKind) violation() bool { return f >= failNilKey }

// starter builds one member's session for a phase.
type starter func(mb *idgka.Member) (*idgka.Session, error)

// phase is one keying flow of an op: every participating member's run
// under one session id.
type phase struct {
	// op is the closed loop's op index, or the churn workload's group;
	// opKey names the op in the trace.
	op    int
	opKey string
	sid   string
	// ring lists the members that start a run, in start order.
	ring    []string
	baseKey []byte
	churn   churnEvent // the churn workload's event, if any

	runs []*serve.Run
	// due is the latency origin: the first Host.Start, or in an open loop
	// the event's due time.
	due     time.Time
	start   time.Time
	settled time.Time
	// fastest is the earliest run settle (traced runs only).
	fastest time.Time

	fail   failKind
	err    error
	key    []byte
	roster []string
}

func (ph *phase) latency() time.Duration { return ph.settled.Sub(ph.due) }

// launch starts every member's run of the phase and hands the phase to a
// waiter that reports it on done once all runs have settled and the keys
// are cross-checked. done must have room for every phase in flight.
func (s *stack) launch(ph *phase, begin func(id string) starter, done chan<- *phase) {
	s.setRing(ph.sid, ph.ring)
	tr := s.tr.Load()
	if tr != nil {
		tr.beginPhase(ph)
	}
	ph.start = time.Now()
	if ph.due.IsZero() {
		ph.due = ph.start
	}
	for _, id := range ph.ring {
		var span int32
		if tr != nil {
			span = tr.beginStart(id, ph.sid)
		}
		t0 := time.Now()
		r, err := s.host.Start(id, ph.sid, begin(id))
		if tr != nil {
			tr.endStart(span, id, ph.sid, t0, time.Now())
		}
		if err != nil {
			ph.fail, ph.err = failStart, err
			ph.settled = time.Now()
			done <- ph
			return
		}
		ph.runs = append(ph.runs, r)
	}
	go ph.wait(done, tr != nil)
}

// wait blocks until every run settles or the phase times out. Every run
// settles eventually: the driver cancels all of an op's runs when the op
// ends, so the stamping goroutines of a traced phase always exit.
func (ph *phase) wait(done chan<- *phase, traced bool) {
	var first chan time.Time
	if traced {
		first = make(chan time.Time, len(ph.runs))
		for _, r := range ph.runs {
			go func(r *serve.Run) {
				<-r.Done()
				first <- time.Now()
			}(r)
		}
	}
	timer := time.NewTimer(phaseTimeout)
	defer timer.Stop()
	for _, r := range ph.runs {
		select {
		case <-r.Done():
		case <-timer.C:
			ph.fail = failTimeout
			ph.settled = time.Now()
			done <- ph
			return
		}
	}
	ph.check()
	ph.settled = time.Now()
	if traced {
		ph.fastest = <-first
	}
	done <- ph
}

// check cross-checks the settled runs: no errors, one agreed non-nil key,
// and for a re-key a key that differs from the base group's.
func (ph *phase) check() {
	for _, r := range ph.runs {
		if err := r.Err(); err != nil {
			ph.fail, ph.err = failError, err
			return
		}
	}
	ref := ph.runs[0].Key()
	if ref == nil {
		ph.fail = failNilKey
		return
	}
	for _, r := range ph.runs[1:] {
		if !bytes.Equal(r.Key(), ref) {
			ph.fail = failSplitKey
			return
		}
	}
	if ph.baseKey != nil && bytes.Equal(ref, ph.baseKey) {
		ph.fail = failUnrotated
		return
	}
	ph.key = ref
	ph.roster = ph.runs[0].Roster()
}

// release cancels the phase's runs, which closes their sessions and
// releases the committed group in every member's machine.
func (s *stack) release(ph *phase) {
	for _, r := range ph.runs {
		r.Cancel()
	}
	s.dropRing(ph.sid)
}

// runPhase launches one phase and waits for it (one op in flight).
func (s *stack) runPhase(ph *phase, begin func(id string) starter) error {
	done := make(chan *phase, 1)
	s.launch(ph, begin, done)
	<-done
	if ph.fail != failNone {
		return errors.Join(errors.New(failNames[ph.fail]+" in "+ph.sid), ph.err)
	}
	return nil
}

func establishAll(ring []string, sid string) func(string) starter {
	return func(string) starter {
		return func(mb *idgka.Member) (*idgka.Session, error) { return mb.NewSession(sid, ring) }
	}
}

func leaveAll(sid, base string, leavers []string) func(string) starter {
	return func(string) starter {
		return func(mb *idgka.Member) (*idgka.Session, error) { return mb.LeaveSession(sid, base, leavers) }
	}
}

func joinAll(sid, base string, oldRing []string, joiner string) func(string) starter {
	return func(id string) starter {
		if id == joiner {
			return func(mb *idgka.Member) (*idgka.Session, error) { return mb.JoinSession(sid, "", oldRing, joiner) }
		}
		return func(mb *idgka.Member) (*idgka.Session, error) { return mb.JoinSession(sid, base, nil, joiner) }
	}
}
