package serve

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"

	"idgka"
	"idgka/internal/mathx"
	"idgka/internal/params"
	"idgka/internal/sigs/gq"
)

// TestHostAmortizedVerify runs many concurrent groups through a host with
// the amortized settlement queue on: every group must still commit an
// agreed key, and the queue's counters must show cross-group coalescing —
// fewer batches than claims.
func TestHostAmortizedVerify(t *testing.T) {
	const pool, groups = 6, 8
	h, lb, ids := newTestHost(t, pool, Config{Shards: pool, AmortizeVerify: true})
	keys := map[string]bool{}
	all := make([][]*Run, groups)
	for g := 0; g < groups; g++ {
		roster := []string{ids[g%pool], ids[(g+1)%pool], ids[(g+2)%pool]}
		sid := fmt.Sprintf("av/%02d", g)
		lb.addRoster(sid, roster)
		all[g] = startGroup(t, h, sid, roster, func(mb *idgka.Member) (*idgka.Session, error) {
			return mb.NewSession(sid, roster)
		})
	}
	for g := 0; g < groups; g++ {
		key := awaitGroup(t, fmt.Sprintf("group %d", g), all[g])
		keys[string(key)] = true
	}
	if len(keys) != groups {
		t.Fatalf("expected %d distinct keys, got %d", groups, len(keys))
	}
	st := h.Stats()
	if st.VerifyClaims != groups*3 {
		t.Fatalf("verify queue settled %d claims, want %d", st.VerifyClaims, groups*3)
	}
	if st.VerifyBatches == 0 || st.VerifyBatches >= st.VerifyClaims {
		t.Fatalf("no cross-group coalescing: %d claims in %d batches", st.VerifyClaims, st.VerifyBatches)
	}
	if st.VerifyBusy <= 0 {
		t.Fatalf("verify queue reports no busy time")
	}
}

// buildTestClaim fabricates one settlement claim over the default
// parameters; tamper flips the response product so the claim is invalid.
func buildTestClaim(t *testing.T, roster []string, tamper bool) *gq.Claim {
	t.Helper()
	set := params.Default()
	pub := gq.ParamsFrom(set.Public().RSA)
	taus := make([]*big.Int, len(roster))
	ts := make([]*big.Int, len(roster))
	var err error
	for i := range roster {
		if taus[i], ts[i], err = gq.Commitment(rand.Reader, pub); err != nil {
			t.Fatal(err)
		}
	}
	bigT := mathx.ProductMod(ts, pub.N)
	z, err := mathx.RandUnit(rand.Reader, pub.N)
	if err != nil {
		t.Fatal(err)
	}
	c := gq.GroupChallenge(bigT, z)
	responses := make([]*big.Int, len(roster))
	for i, id := range roster {
		sk, err := gq.Extract(set.RSA, id)
		if err != nil {
			t.Fatal(err)
		}
		responses[i] = sk.Respond(taus[i], c)
	}
	cb, err := gq.NewClaimBuilder(pub, roster)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cb.NewClaim(responses, c, bigT)
	if err != nil {
		t.Fatal(err)
	}
	if tamper {
		cl.SProd = new(big.Int).Add(cl.SProd, big.NewInt(1))
	}
	return cl
}

// TestVerifyQueueLifecycle exercises the queue directly: claims settle
// through the worker with correct per-claim verdicts, and after close
// late claims are still verified in-line instead of deadlocking.
func TestVerifyQueueLifecycle(t *testing.T) {
	q := newVerifyQueue()
	done := make(chan struct{})
	go func() { q.worker(); close(done) }()

	if err := q.VerifyClaim(buildTestClaim(t, []string{"vq-a", "vq-b"}, false)); err != nil {
		t.Fatalf("good claim rejected: %v", err)
	}
	if err := q.VerifyClaim(buildTestClaim(t, []string{"vq-c"}, true)); err == nil {
		t.Fatal("tampered claim accepted")
	}
	q.close()
	<-done

	// Post-close: the worker is gone; claims must be checked in-line.
	if err := q.VerifyClaim(buildTestClaim(t, []string{"vq-d"}, false)); err != nil {
		t.Fatalf("post-close good claim rejected: %v", err)
	}
	if err := q.VerifyClaim(buildTestClaim(t, []string{"vq-e"}, true)); err == nil {
		t.Fatal("post-close tampered claim accepted")
	}
	if err := q.VerifyClaim(nil); err == nil {
		t.Fatal("nil claim accepted")
	}
}
