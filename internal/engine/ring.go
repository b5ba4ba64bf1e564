package engine

import (
	"errors"
	"fmt"
	"math/big"

	"idgka/internal/bdkey"
	"idgka/internal/mathx"
	"idgka/internal/meter"
	"idgka/internal/netsim"
	"idgka/internal/sigs/gq"
	"idgka/internal/wire"
)

// ringState is the keying material a member accumulates while (re)keying a
// Burmester-Desmedt ring: its own exponent and GQ commitment plus the z/t
// and X/s views of every ring member. It is shared by the initial flow and
// the Leave/Partition flow, whose round-2 and key-computation phases are
// mathematically identical.
type ringState struct {
	roster []string
	pos    map[string]int
	self   int

	r, tau *big.Int
	z, t   map[string]*big.Int
	x, s   map[string]*big.Int

	bigZ, bigT, c *big.Int

	// edge holds z_prev^r in the Montgomery domain of p, the second of
	// the two directed edge powers round 2 raises to form X: equation
	// (3)'s dominant z_prev^{n·r} term then collapses to edge^n (~log2 n
	// squarings) in finish.
	edge mathx.Elem
}

func newRingState(roster []string, self string) (*ringState, error) {
	rs := &ringState{
		roster: append([]string(nil), roster...),
		pos:    make(map[string]int, len(roster)),
		z:      map[string]*big.Int{},
		t:      map[string]*big.Int{},
		x:      map[string]*big.Int{},
		s:      map[string]*big.Int{},
		self:   -1,
	}
	for i, id := range roster {
		rs.pos[id] = i
		if id == self {
			rs.self = i
		}
	}
	if rs.self < 0 {
		return nil, fmt.Errorf("engine: %s not in ring %v", self, roster)
	}
	return rs, nil
}

func (rs *ringState) n() int { return len(rs.roster) }

func (rs *ringState) inRoster(id string) bool {
	_, ok := rs.pos[id]
	return ok
}

// round1Complete reports whether a current z and t is on file for every
// ring member.
func (rs *ringState) round1Complete() bool {
	for _, id := range rs.roster {
		if rs.z[id] == nil || rs.t[id] == nil {
			return false
		}
	}
	return true
}

// recordRound2 parses and records one peer's round-2 broadcast
// U_i ‖ X_i ‖ s_i.
func (rs *ringState) recordRound2(msg *netsim.Message) error {
	r := wire.NewReader(msg.Payload)
	id := r.String()
	x := r.Big()
	s := r.Big()
	if err := r.Close(); err != nil {
		return Retryable(fmt.Errorf("round2 from %s: %w", msg.From, err))
	}
	if id != msg.From || !rs.inRoster(id) {
		return Retryable(fmt.Errorf("round2 bad sender %q/%q", id, msg.From))
	}
	rs.x[id] = x
	rs.s[id] = s
	return nil
}

// round2Payload computes the member's X value, the common challenge
// c = H(T, Z) and the GQ response s_i, returning the encoded broadcast
// m'_i = U_i ‖ X_i ‖ s_i.
func (rs *ringState) round2Payload(mc *Machine) ([]byte, error) {
	sg := mc.cfg.Set.Schnorr
	mo, err := schnorrMont(mc)
	if err != nil {
		return nil, err
	}
	n := rs.n()
	zNext := rs.z[rs.roster[(rs.self+1)%n]]
	zPrev := rs.z[rs.roster[(rs.self-1+n)%n]]
	// Edge-carrying round 2: raise the two directed DH edges separately
	// on the Montgomery ladder and keep b = z_prev^r for the key
	// computation, where it collapses equation (3)'s z_prev^{n·r} to b^n.
	// X is bit-identical to bdkey.XValue's, the session's total
	// exponentiation count is unchanged (the saving lands in finish), and
	// the meter charges the same logical operation.
	a := mo.ExpElem(mo.ToMont(zNext), rs.r)
	b := mo.ExpElem(mo.ToMont(zPrev), rs.r)
	x, err := bdkey.XFromPowers(mo.FromMont(a), mo.FromMont(b), sg.P)
	if err != nil {
		return nil, err
	}
	rs.edge = b
	mc.m.Exp(1)

	// Z = Π z_i mod p, T = Π t_i mod n, c = H(T, Z). Both products are
	// division-free Montgomery folds over independent per-peer
	// contributions, so an active worker pool computes them concurrently.
	zs := make([]*big.Int, 0, n)
	ts := make([]*big.Int, 0, n)
	for _, id := range rs.roster {
		zs = append(zs, rs.z[id])
		ts = append(ts, rs.t[id])
	}
	moN := mc.cfg.Set.RSA.Mont()
	if moN == nil {
		return nil, errors.New("engine: GQ modulus has no Montgomery form")
	}
	_ = mc.pool.Run(
		func() error {
			rs.bigZ = mo.Product(zs)
			return nil
		},
		func() error {
			rs.bigT = moN.Product(ts)
			return nil
		},
	)
	rs.c = gq.GroupChallenge(rs.bigT, rs.bigZ)
	s := mc.sk.Respond(rs.tau, rs.c)
	mc.m.SignGen(meter.SchemeGQ, 1)

	rs.x[mc.id] = x
	rs.s[mc.id] = s
	return wire.NewBuffer().PutString(mc.id).PutBig(x).PutBig(s).Bytes(), nil
}

// finish performs the Authentication and Key Computation phase: one batch
// verification of all GQ responses (equation 2), the Lemma-1 product check
// on the X values, and the BD key computation (equation 3), returning the
// committed group view. Every check runs in-line on the caller's
// goroutine or the machine's worker pool; Step never waits on a host.
//
// The three checks only read their inputs (s values; the X values'
// Montgomery images; the edge), so with an active worker pool they run
// as concurrent tasks.
// Sequentially the tasks run in the order listed with fail-fast
// semantics, keeping the lockstep drivers' operation accounting
// bit-identical; in parallel mode a failing check no longer
// short-circuits its siblings, so the failure path may charge the
// key-computation Exp that the sequential path skips (values and
// verdicts are unaffected).
func (rs *ringState) finish(mc *Machine) (*Group, error) {
	mo, err := schnorrMont(mc)
	if err != nil {
		return nil, err
	}
	n := rs.n()
	responses := make([]*big.Int, 0, n)
	for _, id := range rs.roster {
		responses = append(responses, rs.s[id])
	}
	// The X values convert into the Montgomery domain once, in ring
	// order; the Lemma-1 check and the key assembly both read them there.
	xsMont := make([]mathx.Elem, n)
	for i, id := range rs.roster {
		xsMont[i] = mo.ToMont(rs.x[id])
	}
	var key *big.Int
	err = mc.pool.Run(
		// Equation (2): c == H((Πs_i)^e · (ΠH(U_i))^{-c}, Z), checked
		// in-line through the per-roster cached verifier (no per-round
		// identity hashing or inversion).
		func() error {
			gv, err := mc.claimBuilder(rs.roster)
			if err == nil {
				err = gv.BatchVerify(responses, rs.c, rs.bigZ)
			}
			mc.m.SignVer(meter.SchemeGQ, 1)
			if err != nil {
				return Retryable(err)
			}
			return nil
		},
		// Lemma 1: Π X_i ≡ 1 (mod p).
		func() error {
			if err := bdkey.CheckLemma1Mont(mo, xsMont); err != nil {
				return Retryable(err)
			}
			return nil
		},
		// Equation (3): the shared key, assembled entirely in the
		// Montgomery domain from the edge power round 2 carried over:
		// edge^n replaces the full-width z_prev^{n·r} exponentiation, and
		// the descending-exponent chain telescopes into prefix products.
		func() error {
			var err error
			key, err = bdkey.KeyFromEdgeMont(mo, rs.self, rs.edge, xsMont)
			if err != nil {
				return err
			}
			mc.m.Exp(1)
			return nil
		},
	)
	if err != nil {
		return nil, err
	}

	g := NewGroup(rs.roster)
	g.R = rs.r
	g.Tau = rs.tau
	for id, z := range rs.z {
		g.Z[id] = z
	}
	for id, t := range rs.t {
		g.T[id] = t
	}
	g.Key = key
	return g, nil
}

// schnorrMont returns the Montgomery context of the Schnorr prime p, the
// domain of every 1024-bit keying power the engine raises.
func schnorrMont(mc *Machine) (*mathx.Modulus, error) {
	mo := mc.cfg.Set.Schnorr.Mont()
	if mo == nil {
		return nil, errors.New("engine: Schnorr modulus has no Montgomery form")
	}
	return mo, nil
}

// expP returns base^e mod p on the Montgomery ladder (ExpElem), whose
// square/multiply sequence depends only on e's word length, for the
// secret-exponent DH powers of the dynamic flows.
func expP(mc *Machine, base, e *big.Int) (*big.Int, error) {
	mo, err := schnorrMont(mc)
	if err != nil {
		return nil, err
	}
	return mo.FromMont(mo.ExpElem(mo.ToMont(base), e)), nil
}
