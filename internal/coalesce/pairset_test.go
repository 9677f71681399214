package coalesce

import "testing"

// TestPairSet checks the interference pair set against a map: insert,
// membership, duplicate inserts, growth through several doublings,
// keys that differ only in their high 32 bits, and reuse after reset.
// A reset whose hint the table already holds keeps the table.
func TestPairSet(t *testing.T) {
	var s pairSet
	if s.has(pairKey(1, 2)) {
		t.Fatal("empty set has a key")
	}
	// Keys share their low word in runs of 8 and differ only in the
	// high word within a run.
	var keys []uint64
	for i := range 3000 {
		keys = append(keys, uint64(i%8+1)<<32|uint64(i/8+1))
	}
	for round := range 2 {
		ref := make(map[uint64]bool)
		for i, k := range keys {
			if got := s.insert(k); got == ref[k] {
				t.Fatalf("round %d: insert(%#x) = %v with %d keys in", round, k, got, len(ref))
			}
			ref[k] = true
			if s.insert(k) {
				t.Fatalf("round %d: duplicate insert(%#x) reported absent", round, k)
			}
			if i%97 == 0 || i == len(keys)-1 {
				for _, q := range keys {
					if s.has(q) != ref[q] {
						t.Fatalf("round %d: has(%#x) = %v after %d inserts", round, q, s.has(q), i+1)
					}
				}
			}
		}
		if s.n != len(keys) || len(s.slots) < 2*len(keys) || len(s.slots) > 4*len(keys) {
			t.Fatalf("round %d: %d keys in %d slots", round, s.n, len(s.slots))
		}
		slots := len(s.slots)
		s.reset(len(keys))
		if len(s.slots) != slots {
			t.Fatalf("reset reallocated: %d slots, was %d", len(s.slots), slots)
		}
		for _, k := range keys {
			if s.has(k) {
				t.Fatalf("has(%#x) after reset", k)
			}
		}
	}
}

// TestPairSetResetHint: a reset makes room for its hint, so that many
// inserts never grow the table.
func TestPairSetResetHint(t *testing.T) {
	var s pairSet
	s.reset(100)
	slots := len(s.slots)
	if slots < 200 {
		t.Fatalf("reset(100) made %d slots", slots)
	}
	for k := range uint64(100) {
		s.insert(k<<32 | 1)
	}
	if len(s.slots) != slots || s.n != 100 {
		t.Fatalf("100 keys grew the table from %d to %d slots (n = %d)", slots, len(s.slots), s.n)
	}
}
