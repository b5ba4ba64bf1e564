package engine

import (
	"fmt"
	"testing"

	"idgka/internal/params"
	"idgka/internal/sigs/gq"
)

// TestClaimBuilderCacheBounded drives more distinct rosters through the
// per-roster claim-builder cache than it may hold — as a member would see
// after a long run of Joins by fresh identities. Nothing is evicted until
// the cache is full, the size never exceeds maxClaimBuilders, and the
// roster just built is served from the cache on its next use.
func TestClaimBuilderCacheBounded(t *testing.T) {
	set := params.Default()
	sk, err := gq.Extract(set.RSA, "cache-self")
	if err != nil {
		t.Fatal(err)
	}
	mc, err := NewMachine(Config{Set: set.Public()}, sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxClaimBuilders+64; i++ {
		roster := []string{"cache-self", fmt.Sprintf("joiner-%04d", i)}
		gv, err := mc.claimBuilder(roster)
		if err != nil {
			t.Fatal(err)
		}
		want := i + 1
		if want > maxClaimBuilders {
			want = maxClaimBuilders
		}
		if got := len(mc.gvCache); got != want {
			t.Fatalf("after %d rosters the cache holds %d builders, want %d", i+1, got, want)
		}
		again, err := mc.claimBuilder(roster)
		if err != nil {
			t.Fatal(err)
		}
		if again != gv {
			t.Fatalf("roster %d rebuilt instead of served from the cache", i)
		}
	}
}
