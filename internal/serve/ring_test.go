package serve

import (
	"fmt"
	"math/rand"
	"testing"
)

func ringKeys(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, n)
	for i := range keys {
		// The ring hashes 64-char hex cache keys in production; use the
		// same shape here.
		keys[i] = fmt.Sprintf("%016x%016x%016x%016x", rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64())
	}
	return keys
}

// TestRingDistribution: at 128 vnodes, 3 peers each own their fair
// share of a large key population within +/-20%.
func TestRingDistribution(t *testing.T) {
	peers := []string{"http://peer-a:8080", "http://peer-b:8080", "http://peer-c:8080"}
	r := NewRing(peers, DefaultVnodes)
	keys := ringKeys(30000, 1)
	counts := map[string]int{}
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	fair := float64(len(keys)) / float64(len(peers))
	for _, p := range peers {
		got := float64(counts[p])
		if got < 0.8*fair || got > 1.2*fair {
			t.Errorf("peer %s owns %d keys, want within ±20%% of %.0f (all: %v)", p, counts[p], fair, counts)
		}
	}
}

// TestRingDeterminism: the ring is insensitive to the order of the peer
// list, so differently-ordered -peers flags on each server still agree
// on ownership.
func TestRingDeterminism(t *testing.T) {
	a := NewRing([]string{"http://x", "http://y", "http://z"}, 64)
	b := NewRing([]string{"http://z", "http://x", "http://y", "http://x"}, 64)
	for _, k := range ringKeys(1000, 2) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("rings disagree on %s: %s vs %s", k, a.Owner(k), b.Owner(k))
		}
	}
}

// TestRingMinimalRemapping: growing 3 peers to 4 moves roughly 1/4 of
// the keys and, crucially, never moves a key between two surviving
// peers — the only allowed transition is "old owner -> new peer".
// Removing a peer is the mirror image.
func TestRingMinimalRemapping(t *testing.T) {
	three := []string{"http://a", "http://b", "http://c"}
	four := append(append([]string(nil), three...), "http://d")
	r3 := NewRing(three, DefaultVnodes)
	r4 := NewRing(four, DefaultVnodes)

	keys := ringKeys(30000, 3)
	moved, movedWrong := 0, 0
	for _, k := range keys {
		o3, o4 := r3.Owner(k), r4.Owner(k)
		if o3 != o4 {
			moved++
			if o4 != "http://d" {
				movedWrong++
			}
		}
	}
	if movedWrong != 0 {
		t.Errorf("%d keys moved between surviving peers on peer addition", movedWrong)
	}
	frac := float64(moved) / float64(len(keys))
	if frac < 0.10 || frac > 0.40 {
		t.Errorf("peer addition moved %.1f%% of keys, want roughly 25%%", 100*frac)
	}

	// Removal: keys not owned by the removed peer keep their owner.
	for _, k := range keys {
		o4, o3 := r4.Owner(k), r3.Owner(k)
		if o4 != "http://d" && o3 != o4 {
			t.Fatalf("key %s moved from %s to %s when d was removed", k, o4, o3)
		}
	}
}

// TestRingEdgeCases: nil/empty rings own nothing locally, single-peer
// rings own everything, duplicates and empties in the peer list are
// dropped.
func TestRingEdgeCases(t *testing.T) {
	if r := NewRing(nil, 0); r != nil {
		t.Error("empty node list should yield a nil ring")
	}
	if r := NewRing([]string{"", ""}, 0); r != nil {
		t.Error("all-empty node list should yield a nil ring")
	}
	var nilRing *Ring
	if got := nilRing.Owner("abc"); got != "" {
		t.Errorf("nil ring owner = %q, want empty", got)
	}
	solo := NewRing([]string{"http://only"}, 8)
	for _, k := range ringKeys(50, 4) {
		if solo.Owner(k) != "http://only" {
			t.Fatal("single-peer ring must own every key")
		}
	}
	if n := len(NewRing([]string{"http://a", "http://a"}, 8).Nodes()); n != 1 {
		t.Errorf("duplicate peers not deduplicated: %d nodes", n)
	}
}
