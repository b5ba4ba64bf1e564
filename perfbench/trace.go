package main

import (
	"bufio"
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"idgka"
	"idgka/internal/engine"
	"idgka/internal/netsim"
)

type spanKind uint8

const (
	spanOp spanKind = iota
	spanPhase
	spanServeStart
	spanServeDeliver
	spanTransportSend
	spanTransportRelay
	spanTransportAck
	spanLadderOp
	spanEngineStep
)

var spanNames = [...]string{
	spanOp:             "op",
	spanPhase:          "phase",
	spanServeStart:     "serve.Host.Start",
	spanServeDeliver:   "serve.Host.Deliver",
	spanTransportSend:  "transport.Router.send",
	spanTransportRelay: "transport.relay",
	spanTransportAck:   "transport.ack",
	spanLadderOp:       "ladder.op",
	spanEngineStep:     "engine.Machine.Step",
}

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's epoch; Parent 0 is the root.
type span struct {
	ID, Parent int32
	Kind       spanKind
	Start, End int64
}

// frameKey identifies one relayed frame: within a session a sender emits
// each message type to each addressee once per attempt.
type frameKey struct {
	from, to, sid, typ string
}

// sendRec follows one Router send from its start to the arrivals it
// caused at the recipients' pumps.
type sendRec struct {
	id          int32
	start, end  int64
	first, last int64
	arrivals    int
}

// tracer keeps the traced run's spans in memory until the run ends. Spans
// are recorded by the benchmark around its own calls into each layer; the
// op a call served is found from the wire envelope's session id.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	nextID int32
	phases map[string]int32 // session id → phase span id
	ops    map[string]int32 // op key → op span id
	frames map[frameKey]*sendRec
	order  []*sendRec
	// starting maps a member and session to the span of the Host.Start
	// call in progress for them: the opening traffic that Start transmits
	// is its child.
	starting map[[2]string]int32
	// ladderOp is the span of the ladder op being measured.
	ladderOp int32

	sends, sendErrors  int
	payloadBytes       int64
	recvCalls, recvMsg int
}

func newTracer() *tracer {
	return &tracer{
		epoch:    time.Now(),
		phases:   map[string]int32{},
		ops:      map[string]int32{},
		frames:   map[frameKey]*sendRec{},
		starting: map[[2]string]int32{},
	}
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) id() int32 {
	t.nextID++
	return t.nextID
}

// beginPhase reserves the span ids of a phase (and of its op, for the
// op's first phase) so child spans can name them before they end.
func (t *tracer) beginPhase(ph *phase) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.ops[ph.opKey]; !ok {
		t.ops[ph.opKey] = t.id()
	}
	t.phases[ph.sid] = t.id()
}

func (t *tracer) endPhase(ph *phase) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.phases[ph.sid]
	if !ok {
		return
	}
	t.spans = append(t.spans, span{ID: id, Parent: t.ops[ph.opKey], Kind: spanPhase, Start: t.ns(ph.start), End: t.ns(ph.settled)})
}

func (t *tracer) endOp(key string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ops[key]
	if !ok {
		return
	}
	t.spans = append(t.spans, span{ID: id, Kind: spanOp, Start: t.ns(start), End: t.ns(end)})
}

// beginStart reserves the span of a Host.Start call.
func (t *tracer) beginStart(member, sid string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.id()
	t.starting[[2]string{member, sid}] = id
	return id
}

func (t *tracer) endStart(id int32, member, sid string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.starting, [2]string{member, sid})
	t.spans = append(t.spans, span{ID: id, Parent: t.phases[sid], Kind: spanServeStart, Start: t.ns(start), End: t.ns(end)})
}

// beginLadderOp reserves the span of one ladder op; engine steps recorded
// until the next call are its children.
func (t *tracer) beginLadderOp() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ladderOp = t.id()
	return t.ladderOp
}

func (t *tracer) endLadderOp(id int32, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Kind: spanLadderOp, Start: t.ns(start), End: t.ns(end)})
}

func (t *tracer) step(start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: t.id(), Parent: t.ladderOp, Kind: spanEngineStep, Start: t.ns(start), End: t.ns(end)})
}

// deliver records one Host.Deliver call under the phase its packet
// serves.
func (t *tracer) deliver(payload []byte, start, end time.Time) {
	sid := engine.EnvelopeSID(payload)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: t.id(), Parent: t.phases[sid], Kind: spanServeDeliver, Start: t.ns(start), End: t.ns(end)})
}

func (t *tracer) sendStart(from string, p idgka.Packet) time.Time {
	now := time.Now()
	sid := engine.EnvelopeSID(p.Payload)
	rec := &sendRec{start: t.ns(now)}
	t.mu.Lock()
	t.frames[frameKey{from, p.To, sid, p.Type}] = rec
	t.order = append(t.order, rec)
	t.mu.Unlock()
	return now
}

func (t *tracer) sendEnd(from string, p idgka.Packet, start time.Time, err error) {
	end := time.Now()
	sid := engine.EnvelopeSID(p.Payload)
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.frames[frameKey{from, p.To, sid, p.Type}]
	id := t.id()
	if rec != nil {
		rec.id, rec.end = id, t.ns(end)
	}
	parent, ok := t.starting[[2]string{from, sid}]
	if !ok {
		parent = t.phases[sid]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Kind: spanTransportSend, Start: t.ns(start), End: t.ns(end)})
	t.sends++
	t.payloadBytes += int64(len(p.Payload))
	if err != nil {
		t.sendErrors++
	}
}

// recv notes one RecvWait return: the arrival of every frame it carries.
func (t *tracer) recv(msgs []netsim.Message) {
	now := t.ns(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recvCalls++
	t.recvMsg += len(msgs)
	for _, m := range msgs {
		rec := t.frames[frameKey{m.From, m.To, engine.EnvelopeSID(m.Payload), m.Type}]
		if rec == nil {
			continue
		}
		if rec.arrivals == 0 {
			rec.first = now
		}
		rec.last = max(rec.last, now)
		rec.arrivals++
	}
}

// close turns every followed send into its relay span (send start to the
// first arrival) and ack span (last arrival to the send's return). A pump
// may observe an arrival only after the send returned; its ack span is
// then empty.
func (t *tracer) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rec := range t.order {
		if rec.arrivals == 0 || rec.id == 0 {
			continue
		}
		t.spans = append(t.spans,
			span{ID: t.id(), Parent: rec.id, Kind: spanTransportRelay, Start: rec.start, End: rec.first},
			span{ID: t.id(), Parent: rec.id, Kind: spanTransportAck, Start: min(rec.last, rec.end), End: rec.end})
	}
	t.order = nil
	t.frames = map[frameKey]*sendRec{}
}

// durations returns the durations (µs) of every span of one kind.
func (t *tracer) durations(kind spanKind) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Kind == kind {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfTime is one row of the span summary.
type selfTime struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes sums, per span kind, the spans' durations and their self
// time: each span's duration minus the part of it that its child spans
// cover (overlapping children are merged, not double-counted).
func (t *tracer) selfTimes() map[string]selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Span ids are dense, so a slice maps an id to its span.
	pos := make([]int32, t.nextID+1)
	for i := range pos {
		pos[i] = -1
	}
	order := make([]int32, len(t.spans))
	for i, s := range t.spans {
		pos[s.ID] = int32(i)
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		sa, sb := &t.spans[a], &t.spans[b]
		return cmp.Or(cmp.Compare(sa.Parent, sb.Parent), cmp.Compare(sa.Start, sb.Start))
	})
	covered := make([]int64, len(t.spans))
	for i := 0; i < len(order); {
		parentID := t.spans[order[i]].Parent
		j := i
		for j < len(order) && t.spans[order[j]].Parent == parentID {
			j++
		}
		if p := pos[parentID]; parentID != 0 && p >= 0 {
			parent := t.spans[p]
			cur, curEnd := int64(0), int64(0)
			for _, k := range order[i:j] {
				lo, hi := max(t.spans[k].Start, parent.Start), min(t.spans[k].End, parent.End)
				if hi <= lo {
					continue
				}
				if lo > curEnd {
					covered[p] += curEnd - cur
					cur, curEnd = lo, hi
				} else {
					curEnd = max(curEnd, hi)
				}
			}
			covered[p] += curEnd - cur
		}
		i = j
	}
	out := map[string]selfTime{}
	for i, s := range t.spans {
		name := spanNames[s.Kind]
		st := out[name]
		st.Count++
		st.TotalMS += float64(s.End-s.Start) / 1e6
		st.SelfMS += float64(s.End-s.Start-covered[i]) / 1e6
		out[name] = st
	}
	return out
}

// writeSpans writes the spans as a JSON array with one array per span:
// [id, parent, name, start_us, end_us].
func (t *tracer) writeSpans(w *bufio.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	w.WriteByte('[')
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "[%d,%d,%q,%.3f,%.3f]", s.ID, s.Parent, spanNames[s.Kind], float64(s.Start)/1e3, float64(s.End)/1e3)
	}
	w.WriteByte(']')
	return w.Flush()
}
