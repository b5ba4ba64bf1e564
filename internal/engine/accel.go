package engine

import "sync"

// AccelConfig tunes the crypto acceleration layer under a machine's hot
// path. The zero value disables everything, which keeps the engine's
// operation sequence — and therefore the lockstep drivers' byte/op
// accounting — exactly as the paper reproduction requires. Acceleration
// never changes protocol values: payloads, keys and verdicts are
// bit-identical with any combination of knobs. The keying arithmetic
// itself has one path for every configuration: round 2 keeps the edge
// power z_prev^r and the key is assembled in the Montgomery domain
// (bdkey.KeyFromEdgeMont), and the GQ batch check (equation 2) always
// runs in-line in the finish phase.
type AccelConfig struct {
	// Precompute builds windowed fixed-base tables at machine creation —
	// for the Schnorr generator (every z_i = g^r broadcast) and the
	// member's GQ identity key (every response s_i = τ·S^c). The
	// generator table attaches to the shared parameter set, so its
	// one-off build is amortised across all members of a process; the
	// identity-key table is per member (27 rows of 64 residues of the
	// RSA modulus' width). Precompute changes nothing else.
	Precompute bool
	// VerifyWorkers bounds the worker pool that processes independent
	// incoming contributions concurrently: the round-2 Z and T products
	// run side by side, and the finish-phase checks (signature batch,
	// Lemma 1, key computation) run as parallel tasks. 0 or 1 selects
	// the exact sequential path.
	VerifyWorkers int
}

// pool is a bounded worker pool for independent verification tasks. A nil
// *pool runs tasks sequentially with fail-fast semantics — the control
// flow of straight-line code — so call sites never branch on the accel
// mode.
type pool struct {
	sem chan struct{}
}

// newPool returns nil (sequential execution) unless workers > 1.
func newPool(workers int) *pool {
	if workers <= 1 {
		return nil
	}
	return &pool{sem: make(chan struct{}, workers)}
}

// Run executes the tasks. Sequentially (nil pool) it stops at the first
// error, exactly like straight-line code. On an active pool every task
// runs to completion on at most `workers` goroutines and the error of the
// lowest-indexed failing task is returned, so the surfaced failure is
// deterministic regardless of scheduling.
func (p *pool) Run(tasks ...func() error) error {
	if p == nil || len(tasks) < 2 {
		for _, t := range tasks {
			if err := t(); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, t := range tasks {
		p.sem <- struct{}{}
		wg.Add(1)
		go func(i int, t func() error) {
			defer wg.Done()
			defer func() { <-p.sem }()
			errs[i] = t()
		}(i, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
