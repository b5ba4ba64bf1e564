package experiments

import (
	"strings"
	"testing"
)

// TestAccelBenchShape runs a reduced acceleration benchmark and checks
// that every tracked op is present with sane, positive measurements. The
// speedup magnitudes themselves are hardware-dependent and enforced by
// the CI bench-regression gate, not by unit tests.
func TestAccelBenchShape(t *testing.T) {
	e, err := NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	out, ops, err := e.AccelBench(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"initial/key-computation",
		"initial/member-pipeline",
		"schnorr/fixed-base-exp",
		"mont/mul",
		"mont/single-exp",
		"mont/var-base-exp",
		"gq/respond",
		"bd/key-assembly",
		"gq/batch-verify",
		"ec/scalar-base-mult",
		"pairing/scalar-base-mult",
	}
	for _, name := range want {
		s, ok := ops[name]
		if !ok {
			t.Fatalf("tracked op %q missing", name)
		}
		if s.SerialNS <= 0 || s.AccelNS <= 0 || s.Speedup <= 0 {
			t.Fatalf("op %q has non-positive stats: %+v", name, s)
		}
		if !strings.Contains(out, name) {
			t.Fatalf("rendered table missing op %q", name)
		}
	}
	if len(ops) != len(want) {
		t.Fatalf("ops map has %d entries, want %d", len(ops), len(want))
	}
	if _, _, err := e.AccelBench(1, 2); err == nil {
		t.Fatal("n=1 accepted")
	}
}

// TestAccelBenchFixedBaseWins asserts the mathematically-guaranteed wins
// (fixed-base tables replace hundreds of squarings with ~27 products)
// hold with a margin loose enough to be timing-noise-proof.
func TestAccelBenchFixedBaseWins(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the serial/accelerated timing ratio")
	}
	e, err := NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	_, ops, err := e.AccelBench(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"schnorr/fixed-base-exp", "gq/respond", "ec/scalar-base-mult", "pairing/scalar-base-mult"} {
		if s := ops[name]; s.Speedup < 1.5 {
			t.Errorf("%s: expected a clear fixed-base win, got %.2fx", name, s.Speedup)
		}
	}
}
