// Command gkanet runs the authenticated group key agreement over real TCP
// sockets: a relay hub plus one TCP connection per node, exercising the
// same protocol engine as the simulator.
//
// Two execution modes:
//
//   - event (default): each process hosts the nodes it owns in one
//     serve.Host — the runtime applications use — and one pump per node
//     feeds the host from that node's own TCP inbox, so every member
//     reacts only to its own traffic and no coordinator touches more than
//     one member. -groups G runs G concurrent groups, each a rotated ring
//     over the -n nodes (so the controllers differ). Every group
//     establishes and confirms; with -dynamic (on by default) a fresh TCP
//     node is then admitted to every group by the Join protocol and a
//     member is evicted by Leave, each re-key explicitly confirmed. Every
//     member derives each flow's parameters from its own committed session
//     state (the engine's per-session group registry).
//
//   - lockstep: the original driver (core.RunInitial) marches all members
//     through the rounds from one goroutine, as the paper's tables do.
//
// Fault scenarios (-crash) kill one node after a chosen phase and let the
// survivors recover without a coordinator: the hub's peer-down frame wakes
// them, they cancel the confirmation the death wedged, evict the dead node
// from every group with the paper's Leave protocol and converge on (and
// confirm) a fresh key. Sends are bounded by -send-timeout, so a wedged
// transport fails fast instead of hanging.
//
// A run can span several OS processes: one process starts the hub, the
// others dial it with -connect, and -own names the subset of nodes each
// process drives. A ready-barrier over the hub synchronises the processes
// before the first protocol round. Each process prints the fingerprint of
// every group in which it owns a member of the final stage.
//
//	gkanet -n 5                     # hub + 5 nodes: establish, join, evict
//	gkanet -dynamic=false -n 5      # establishment + confirmation only
//	gkanet -mode lockstep -n 5      # the lockstep orchestrator
//	gkanet -listen :7777            # choose the hub port
//	gkanet -precompute -workers 4   # crypto acceleration (tables + pool)
//	gkanet -n 5 -crash node-02@confirmed   # kill node-02, survivors re-key
//	gkanet -n 4 -groups 16                 # 16 concurrent groups
//	gkanet -n 4 -groups 8 -crash node-02@established
//	gkanet -n 4 -own node-01,node-02 -crash node-04@confirmed &   # multi-process:
//	gkanet -n 4 -connect HOST:PORT -own node-03,node-04 -crash node-04@confirmed
package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"log"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"idgka"
	"idgka/internal/core"
	"idgka/internal/energy"
	"idgka/internal/engine"
	"idgka/internal/meter"
	"idgka/internal/params"
	"idgka/internal/serve"
	"idgka/internal/sigs/gq"
	"idgka/internal/transport"
)

// Crash phases: the point in the run after which the victim's process
// kills it. "established" kills it after the initial key commit but BEFORE
// the confirmation round (survivors wedge mid-confirm and must cancel it
// on the peer-down event); "confirmed" kills it after confirmation.
const (
	phaseEstablished = "established"
	phaseConfirmed   = "confirmed"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gkanet: ")
	n := flag.Int("n", 5, "group size")
	listen := flag.String("listen", "127.0.0.1:0", "hub listen address")
	connect := flag.String("connect", "", "dial an existing hub at this address instead of starting one (multi-process runs)")
	own := flag.String("own", "", "comma-separated node ids this process drives (default: all; multi-process runs)")
	mode := flag.String("mode", "event", "execution mode: event (per-node state machines) or lockstep (driver)")
	dynamic := flag.Bool("dynamic", true, "event mode: admit one joiner and evict one member after establishment")
	crash := flag.String("crash", "", "event mode fault scenario: <id>@<phase> kills node id after phase (established|confirmed); survivors evict it via Leave and re-key")
	groups := flag.Int("groups", 1, "event mode: concurrent groups, each a rotated ring over the -n nodes")
	sendTimeout := flag.Duration("send-timeout", 15*time.Second, "per-delivery deadline on every Broadcast/Send (0 = unbounded)")
	precompute := flag.Bool("precompute", false, "build fixed-base tables for the generator and identity keys")
	workers := flag.Int("workers", 0, "per-node verification worker pool size (0 or 1 = sequential)")
	metricsAddr := flag.String("metrics-addr", "", "serve the process metrics registry as expvar-compatible JSON on this HTTP address (e.g. 127.0.0.1:9100)")
	flag.Parse()
	if *n < 2 {
		log.Fatal("-n must be >= 2")
	}
	if *mode != "event" && *mode != "lockstep" {
		log.Fatalf("unknown -mode %q", *mode)
	}
	event := *mode == "event"
	victim, phase, err := parseCrash(*crash)
	if err != nil {
		log.Fatal(err)
	}
	if victim != "" && !event {
		log.Fatal("-crash needs -mode event")
	}
	if victim != "" && *n < 3 {
		log.Fatal("-crash needs -n >= 3 (survivor rings must keep >= 2 members)")
	}
	if *groups < 1 {
		log.Fatal("-groups must be >= 1")
	}
	if *groups > 1 && !event {
		log.Fatal("-groups needs -mode event")
	}

	if *metricsAddr != "" {
		addr, err := serveMetrics(*metricsAddr)
		if err != nil {
			log.Fatalf("metrics: %v", err)
		}
		fmt.Printf("metrics on http://%s/\n", addr)
	}

	var router *transport.Router
	if *connect != "" {
		router = transport.NewRouter(*connect)
		fmt.Printf("joining hub at %s\n", *connect)
	} else {
		hub, err := transport.NewHub(*listen)
		if err != nil {
			log.Fatalf("hub: %v", err)
		}
		defer hub.Close()
		fmt.Printf("hub listening on %s\n", hub.Addr())
		router = transport.NewRouter(hub.Addr())
	}
	defer router.Close()
	router.SetSendTimeout(*sendTimeout)

	joinDemo := event && *dynamic && victim == ""
	total := *n
	if joinDemo {
		total = *n + 1 // the node admitted by the Join demo
	}
	ids := make([]string, total)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%02d", i+1)
	}
	if victim != "" && !slices.Contains(ids, victim) {
		log.Fatalf("-crash victim %q is not one of %v", victim, ids)
	}
	ownIDs, err := parseOwn(*own, ids)
	if err != nil {
		log.Fatal(err)
	}
	p := &proc{router: router, ids: ownIDs}
	if len(ownIDs) < total || *connect != "" {
		if !event {
			log.Fatal("-connect/-own need -mode event")
		}
		// Multi-process run: synchronise on a ready-barrier before the
		// first protocol round, so no broadcast misses a late process.
		p.barrierTotal = total
	}
	for _, id := range ownIDs {
		link := meter.New()
		if err := router.Attach(id, link); err != nil {
			log.Fatalf("attach: %v", err)
		}
		p.links = append(p.links, link)
		fmt.Printf("node %s connected over TCP\n", id)
	}
	roster := ids[:*n]

	sc := scenario{roster: roster, groups: *groups, victim: victim, phase: phase}
	if joinDemo {
		sc.joiner, sc.evictee = ids[total-1], roster[1]
	}
	start := time.Now()
	var keys [][]byte
	if event {
		auth, err := idgka.NewAuthority()
		if err != nil {
			log.Fatal(err)
		}
		for _, id := range ownIDs {
			mb, err := auth.NewMemberWithConfig(id, idgka.Config{Precompute: *precompute, VerifyWorkers: *workers})
			if err != nil {
				log.Fatal(err)
			}
			p.members = append(p.members, mb)
		}
		if keys, err = p.run(sc); err != nil {
			log.Fatalf("GKA: %v", err)
		}
	} else {
		set := params.Default()
		cfg := core.Config{Set: set.Public(), Accel: engine.AccelConfig{
			Precompute:    *precompute,
			VerifyWorkers: *workers,
		}}
		members := make([]*core.Member, *n)
		for i, id := range roster {
			sk, err := gq.Extract(set.RSA, id)
			if err != nil {
				log.Fatalf("extract: %v", err)
			}
			if members[i], err = core.NewMember(cfg, sk, p.links[i]); err != nil {
				log.Fatal(err)
			}
		}
		if err := core.RunInitial(router, members); err != nil {
			log.Fatalf("GKA: %v", err)
		}
		if err := core.ConfirmKey(router, members); err != nil {
			log.Fatalf("confirmation: %v", err)
		}
		keys = [][]byte{members[0].Key().Bytes()}
	}
	elapsed := time.Since(start)

	converged := 0
	// A counter, not a range: secretflow taints the index of a range over
	// key material, and the group index is formatted.
	for g := 0; g < len(keys); g++ {
		if keys[g] == nil {
			continue // this process owns no member of the group's final stage
		}
		converged++
		fp := sha256.Sum256(keys[g])
		fmt.Printf("group g%02d key fingerprint: %x\n", g, fp[:8])
	}
	switch {
	case victim != "":
		fmt.Printf("\ncrash: %s killed at phase %q; survivors detected the death,\n", victim, phase)
		fmt.Printf("       evicted it via Leave and confirmed a fresh key\n")
	case sc.joiner != "":
		fmt.Printf("\njoin:  %s admitted over TCP, key rotated and confirmed\n", sc.joiner)
		fmt.Printf("leave: %s evicted, survivors re-keyed and confirmed\n", sc.evictee)
	}
	fmt.Printf("\n%d group(s) converged on confirmed keys over TCP in %v (%s mode)\n",
		converged, elapsed.Round(time.Millisecond), *mode)

	model := energy.DefaultModel()
	for i, id := range p.ids {
		r := p.links[i].Report()
		if event {
			// Event-mode members meter operations; the link meters bytes.
			r = r.Add(p.members[i].Report())
		}
		fmt.Printf("  %-8s tx=%dB rx=%dB -> %.2f mJ (modelled)\n",
			id, r.BytesTx, r.BytesRx, model.EnergyJ(r)*1000)
	}
}

// parseCrash splits an -crash value into victim id and phase.
func parseCrash(v string) (victim, phase string, err error) {
	if v == "" {
		return "", "", nil
	}
	at := strings.LastIndex(v, "@")
	if at <= 0 || at == len(v)-1 {
		return "", "", fmt.Errorf("-crash wants <id>@<phase>, got %q", v)
	}
	victim, phase = v[:at], v[at+1:]
	if phase != phaseEstablished && phase != phaseConfirmed {
		return "", "", fmt.Errorf("-crash phase %q not one of %s|%s", phase, phaseEstablished, phaseConfirmed)
	}
	return victim, phase, nil
}

// parseOwn resolves the -own subset against the deployment's ids.
func parseOwn(v string, ids []string) ([]string, error) {
	if v == "" {
		return ids, nil
	}
	var out []string
	for _, id := range strings.Split(v, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if !slices.Contains(ids, id) {
			return nil, fmt.Errorf("-own id %q is not one of %v", id, ids)
		}
		out = append(out, id)
	}
	if len(out) == 0 {
		return nil, errors.New("-own named no nodes")
	}
	sort.Strings(out)
	return out, nil
}

// proc is the slice of a deployment one OS process drives: the nodes it
// owns with their link meters and (event mode) members, all parallel to
// ids; the shared router; and, for multi-process runs, the total node
// count the ready-barrier waits for (0 = single process, no barrier).
type proc struct {
	router       *transport.Router
	ids          []string
	links        []*meter.Meter
	members      []*idgka.Member
	barrierTotal int

	mu sync.Mutex
	//gkalint:guard mu
	ready map[string]bool // nodes whose ready beacon a pump recorded
}

// scenario is one event-mode run: groups rotated rings over roster, each
// established and confirmed, then either the Join/Leave demo (joiner and
// evictee set) or a crash of victim after phase.
type scenario struct {
	roster          []string
	groups          int
	joiner, evictee string
	victim, phase   string
}

// startFunc builds member mb's session for one group's flow under sid.
type startFunc func(g int, sid string, mb *idgka.Member) (*idgka.Session, error)

// sidOf names the session of one group's flow; every process derives the
// same id.
func sidOf(g int, tag string) string { return fmt.Sprintf("gkanet/g%02d/%s", g, tag) }

// confirmOf confirms each group's key committed by flow base.
func confirmOf(base string) startFunc {
	return func(g int, sid string, mb *idgka.Member) (*idgka.Session, error) {
		return mb.ConfirmSession(sid, sidOf(g, base))
	}
}

// run plays sc on the owned members through one serve.Host and returns
// each group's final confirmed key, nil for groups in which this process
// owns no member of the final stage. Every stage cross-checks the key
// across the owned members of each group, and every re-key checks the
// group's key actually rotated.
func (p *proc) run(sc scenario) ([][]byte, error) {
	host := serve.NewHost(serve.Config{Deadline: 30 * time.Second}, p.transmit)
	defer host.Close()
	for _, mb := range p.members {
		if err := host.AddMember(mb); err != nil {
			return nil, err
		}
	}
	var pumps sync.WaitGroup
	for _, id := range p.ids {
		pumps.Add(1)
		go func() {
			defer pumps.Done()
			p.pump(host, id)
		}()
	}
	// Leaving the run detaches the owned nodes, which ends their pumps.
	defer func() {
		for _, id := range p.ids {
			p.router.Detach(id)
		}
		pumps.Wait()
	}()
	if p.barrierTotal > 0 {
		if err := p.barrier(time.Minute); err != nil {
			return nil, err
		}
	}

	rings := make([][]string, sc.groups)
	for g := range rings {
		k := g % len(sc.roster)
		rings[g] = append(slices.Clone(sc.roster[k:]), sc.roster[:k]...)
	}
	est, err := p.stage(host, "est", rings, func(g int, sid string, mb *idgka.Member) (*idgka.Session, error) {
		return mb.NewSession(sid, rings[g])
	})
	if err != nil {
		return nil, err
	}
	if sc.victim == "" {
		keys, err := p.stage(host, "cfm-est", rings, confirmOf("est"))
		if err != nil || sc.joiner == "" {
			return keys, err
		}
		joined := make([][]string, len(rings))
		for g, ring := range rings {
			joined[g] = append(slices.Clone(ring), sc.joiner)
		}
		jn, err := p.rekey(host, "join", joined, est, func(g int, sid string, mb *idgka.Member) (*idgka.Session, error) {
			if mb.ID() == sc.joiner {
				return mb.JoinSession(sid, "", rings[g], sc.joiner)
			}
			return mb.JoinSession(sid, sidOf(g, "est"), nil, sc.joiner)
		})
		if err != nil {
			return nil, err
		}
		return p.rekey(host, "leave", without(joined, sc.evictee), jn, func(g int, sid string, mb *idgka.Member) (*idgka.Session, error) {
			return mb.LeaveSession(sid, sidOf(g, "join"), []string{sc.evictee})
		})
	}

	// Crash. At phase "established" the victim dies before confirming, so
	// the survivors' confirmations genuinely wedge until the peer-down
	// notice lets them be cancelled.
	survivors := without(rings, sc.victim)
	var wedged [][]*serve.Run
	if sc.phase == phaseEstablished {
		p.kill(sc.victim)
		if wedged, err = p.start(host, "cfm-est", survivors, confirmOf("est")); err != nil {
			return nil, err
		}
	} else {
		if _, err := p.stage(host, "cfm-est", rings, confirmOf("est")); err != nil {
			return nil, err
		}
		p.kill(sc.victim)
	}
	if err := p.awaitDeath(sc.victim, 30*time.Second); err != nil {
		return nil, err
	}
	for _, runs := range wedged {
		for _, r := range runs {
			r.Cancel()
		}
	}
	return p.rekey(host, "evict", survivors, est, func(g int, sid string, mb *idgka.Member) (*idgka.Session, error) {
		return mb.LeaveSession(sid, sidOf(g, "est"), []string{sc.victim})
	})
}

// rekey runs one re-keying flow on rings, checks every group's key
// rotated away from base, and confirms the new keys.
func (p *proc) rekey(host *serve.Host, tag string, rings [][]string, base [][]byte, start startFunc) ([][]byte, error) {
	keys, err := p.stage(host, tag, rings, start)
	if err != nil {
		return nil, err
	}
	// A counter, not a range, for the reason given in main.
	for g := 0; g < len(keys); g++ {
		if keys[g] != nil && bytes.Equal(keys[g], base[g]) {
			return nil, fmt.Errorf("g%02d: %s did not rotate the key", g, tag)
		}
	}
	return p.stage(host, "cfm-"+tag, rings, confirmOf(tag))
}

// stage starts flow tag in every group and settles it, returning each
// group's agreed key (nil where this process owns no member of the ring).
func (p *proc) stage(host *serve.Host, tag string, rings [][]string, start startFunc) ([][]byte, error) {
	runs, err := p.start(host, tag, rings, start)
	if err != nil {
		return nil, err
	}
	return serve.SettleGroups(tag, runs, 2*time.Minute)
}

// start starts flow tag in every group on the owned members of its ring.
func (p *proc) start(host *serve.Host, tag string, rings [][]string, start startFunc) ([][]*serve.Run, error) {
	runs := make([][]*serve.Run, len(rings))
	for g, ring := range rings {
		var owned []string
		for _, id := range ring {
			if slices.Contains(p.ids, id) {
				owned = append(owned, id)
			}
		}
		sid := sidOf(g, tag)
		var err error
		runs[g], err = serve.StartGroup(host, sid, owned, func(mb *idgka.Member) (*idgka.Session, error) {
			return start(g, sid, mb)
		})
		if err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// without returns rings with id removed from each.
func without(rings [][]string, id string) [][]string {
	out := make([][]string, len(rings))
	for g, ring := range rings {
		for _, m := range ring {
			if m != id {
				out[g] = append(out[g], m)
			}
		}
	}
	return out
}

// kill drops the victim's connection without warning, if this process
// owns it.
func (p *proc) kill(victim string) {
	if slices.Contains(p.ids, victim) {
		p.router.Detach(victim)
	}
}

// awaitDeath waits until every owned member other than peer has
// learned of peer's death through the hub's peer-down frames.
func (p *proc) awaitDeath(peer string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, mb := range p.members {
		if mb.ID() == peer {
			continue
		}
		for !slices.Contains(mb.DeadPeers(), peer) {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s never observed the death of %s", mb.ID(), peer)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// transmit is the host's Transmit over the router. A recipient dying
// mid-delivery is not fatal: the hub settles the send with a
// *PeerDownError once every SURVIVING recipient has the message, and the
// eviction flows deal with the dead peer.
func (p *proc) transmit(from string, pkt idgka.Packet) error {
	var err error
	if pkt.To == "" {
		err = p.router.BroadcastState(from, pkt.Type, pkt.Payload, pkt.StateLen)
	} else {
		err = p.router.SendState(from, pkt.To, pkt.Type, pkt.Payload, pkt.StateLen)
	}
	var pd *transport.PeerDownError
	if errors.As(err, &pd) {
		return nil
	}
	return err
}

const typeReady = "gkanet/ready"

// pump drains one owned node's inbox into the host until the node is
// detached or the router closes. Ready beacons are recorded for the
// barrier and never delivered; traffic of flows not started yet is
// buffered by the member's machine, so nothing a faster process sends
// early is lost.
func (p *proc) pump(host *serve.Host, id string) {
	for {
		msgs, err := p.router.RecvWait(id)
		if err != nil {
			return
		}
		for _, m := range msgs {
			if m.Type == typeReady {
				p.markReady(m.From)
				continue
			}
			// The only error is an unknown member, and id is hosted.
			_ = host.Deliver(id, idgka.Packet{From: m.From, To: m.To, Type: m.Type, Payload: m.Payload})
		}
	}
}

// barrier synchronises a multi-process run: every owned node broadcasts a
// ready beacon until the pumps have recorded one from every node of the
// deployment, then announces readiness once more (everyone is attached by
// then, so nobody can miss it) and proceeds. Beacons carry a nil payload
// on purpose: the energy model prices bytes, so the synchronisation
// traffic cannot perturb the printed per-node byte/energy accounting.
func (p *proc) barrier(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		seen := p.markReady(p.ids...)
		for _, id := range p.ids {
			if err := p.router.Broadcast(id, typeReady, nil); err != nil {
				return err
			}
		}
		if seen >= p.barrierTotal {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ready barrier timed out with %d/%d nodes", seen, p.barrierTotal)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// markReady records ready nodes and returns how many are known ready.
func (p *proc) markReady(ids ...string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ready == nil {
		p.ready = map[string]bool{}
	}
	for _, id := range ids {
		p.ready[id] = true
	}
	return len(p.ready)
}
