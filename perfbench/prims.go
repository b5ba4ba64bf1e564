package main

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"time"

	"idgka/internal/bdkey"
	"idgka/internal/mathx"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
)

// timeCalls runs f until budget has passed (at least 10 calls) and
// returns the median call time in µs.
func timeCalls(budget time.Duration, f func()) float64 {
	var xs []float64
	deadline := time.Now().Add(budget)
	for len(xs) < 10 || time.Now().Before(deadline) {
		t0 := time.Now()
		f()
		xs = append(xs, us(time.Since(t0)))
	}
	return quantile(xs, 0.5)
}

// primitives times the arithmetic under one op at ring size n: round 2's
// variable-base exponentiation (1024-bit base, 160-bit exponent) through
// math/big and through mathx's Montgomery ladder, the fixed-base table
// power of g, the GQ batch check of n responses, the amortized RLC
// settlement at claimsPerBatch claims per batch, and the BD key assembly.
// Every result is checked against an independent computation.
func primitives(n, claimsPerBatch int, short bool) (map[string]float64, error) {
	budget := 200 * time.Millisecond
	if short {
		budget = 20 * time.Millisecond
	}
	set := params.Default()
	sg := set.Schnorr
	mo := sg.Mont()
	base, err := mathx.RandUnit(rand.Reader, sg.P)
	if err != nil {
		return nil, err
	}
	e, err := mathx.RandScalar(rand.Reader, sg.Q)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	want := new(big.Int).Exp(base, e, sg.P)
	out["mathx.var_exp_us"] = timeCalls(budget, func() { new(big.Int).Exp(base, e, sg.P) })
	bm := mo.ToMont(base)
	if mo.FromMont(mo.ExpElem(bm, e)).Cmp(want) != 0 {
		return nil, errors.New("mathx: Montgomery exponentiation disagrees with math/big")
	}
	out["mathx.mont_exp_us"] = timeCalls(budget, func() { mo.ExpElem(bm, e) })
	tab := sg.Precompute()
	if tab.Exp(e).Cmp(new(big.Int).Exp(sg.G, e, sg.P)) != 0 {
		return nil, errors.New("mathx: fixed-base table disagrees with math/big")
	}
	out["mathx.fixed_exp_us"] = timeCalls(budget, func() { tab.Exp(e) })

	pub := gq.ParamsFrom(set.Public().RSA)
	ids, responses, c, z, _, err := gqRound(set, n, "p")
	if err != nil {
		return nil, err
	}
	gv, err := gq.NewGroupVerifier(pub, ids)
	if err != nil {
		return nil, err
	}
	if err := gv.BatchVerify(responses, c, z); err != nil {
		return nil, err
	}
	out["gq.batch_verify_us"] = timeCalls(budget, func() { _ = gv.BatchVerify(responses, c, z) })

	claims := make([]*gq.Claim, max(claimsPerBatch, 2))
	for j := range claims {
		ids, responses, c, _, bigT, err := gqRound(set, n, fmt.Sprintf("c%d", j))
		if err != nil {
			return nil, err
		}
		cb, err := gq.NewClaimBuilder(pub, ids)
		if err != nil {
			return nil, err
		}
		if claims[j], err = cb.NewClaim(responses, c, bigT); err != nil {
			return nil, err
		}
	}
	if err := gq.VerifyClaimsRLC(rand.Reader, claims); err != nil {
		return nil, err
	}
	out["gq.rlc_us_per_claim"] = timeCalls(budget, func() { _ = gq.VerifyClaimsRLC(rand.Reader, claims) }) / float64(len(claims))

	rs := make([]*big.Int, n)
	zs := make([]*big.Int, n)
	for i := range rs {
		if rs[i], err = mathx.RandScalar(rand.Reader, sg.Q); err != nil {
			return nil, err
		}
		zs[i] = new(big.Int).Exp(sg.G, rs[i], sg.P)
	}
	xs := make([]*big.Int, n)
	xsM := make([]mathx.Elem, n)
	for i := range xs {
		if xs[i], err = bdkey.XValue(zs[(i+1)%n], zs[(i-1+n)%n], rs[i], sg.P); err != nil {
			return nil, err
		}
		xsM[i] = mo.ToMont(xs[i])
	}
	edge := mo.ToMont(new(big.Int).Exp(zs[n-1], rs[0], sg.P))
	ref, err := bdkey.Key(0, rs[0], zs[n-1], xs, sg.P)
	if err != nil {
		return nil, err
	}
	if k, err := bdkey.KeyFromEdgeMont(mo, 0, edge, xsM); err != nil || k.Cmp(ref) != 0 {
		return nil, fmt.Errorf("bdkey: Montgomery key assembly disagrees with the reference (%v)", err)
	}
	out["bdkey.key_us"] = timeCalls(budget, func() { _, _ = bdkey.KeyFromEdgeMont(mo, 0, edge, xsM) })
	return out, nil
}

// gqRound builds one valid keying round's GQ material for n signers:
// identities, responses, the common challenge c = H(T, z) and T = Π t_i.
func gqRound(set *params.Set, n int, tag string) (ids []string, responses []*big.Int, c, z, bigT *big.Int, err error) {
	pub := gq.ParamsFrom(set.Public().RSA)
	ids = make([]string, n)
	taus := make([]*big.Int, n)
	ts := make([]*big.Int, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%02d", tag, i)
		if taus[i], ts[i], err = gq.Commitment(rand.Reader, pub); err != nil {
			return
		}
	}
	if z, err = mathx.RandUnit(rand.Reader, pub.N); err != nil {
		return
	}
	bigT = mathx.ProductMod(ts, pub.N)
	c = gq.GroupChallenge(bigT, z)
	responses = make([]*big.Int, n)
	for i, id := range ids {
		sk, xerr := gq.Extract(set.RSA, id)
		if xerr != nil {
			return nil, nil, nil, nil, nil, xerr
		}
		responses[i] = sk.Respond(taus[i], c)
	}
	return
}
