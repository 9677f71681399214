package dataflow

import (
	"testing"
)

func TestBitSetReset(t *testing.T) {
	s := NewBitSet(100)
	s.Set(3)
	s.Set(99)

	// Shrinking reuses the backing array and empties the set.
	s.Reset(64)
	if s.Len() != 64 {
		t.Fatalf("Len = %d, want 64", s.Len())
	}
	if !s.Empty() {
		t.Fatalf("Reset set not empty: %v", s)
	}
	s.Set(63)
	if !s.Has(63) || s.Count() != 1 {
		t.Fatalf("set after Reset broken: %v", s)
	}

	// Growing past capacity reallocates; still empty.
	s.Reset(1000)
	if s.Len() != 1000 || !s.Empty() {
		t.Fatalf("grow Reset: len=%d empty=%v", s.Len(), s.Empty())
	}

	// A Reset set behaves exactly like a fresh one under SetAll/Equal.
	s.Reset(70)
	s.SetAll()
	fresh := NewBitSet(70)
	fresh.SetAll()
	if !s.Equal(fresh) {
		t.Fatalf("Reset+SetAll != NewBitSet+SetAll")
	}
}

func TestUnionDiff(t *testing.T) {
	s := NewBitSet(130)
	u := NewBitSet(130)
	v := NewBitSet(130)
	s.Set(1)
	u.Set(1)
	u.Set(64)
	u.Set(129)
	v.Set(64)
	s.UnionDiff(u, v) // s ∪= u ∖ v = {1, 129}
	want := NewBitSet(130)
	want.Set(1)
	want.Set(129)
	if !s.Equal(want) {
		t.Fatalf("UnionDiff = %v, want %v", s, want)
	}
}

func benchSets(n int) (*BitSet, *BitSet) {
	a, b := NewBitSet(n), NewBitSet(n)
	for i := 0; i < n; i += 3 {
		a.Set(i)
	}
	for i := 0; i < n; i += 7 {
		b.Set(i)
	}
	return a, b
}

func BenchmarkBitSetUnion(b *testing.B) {
	x, y := benchSets(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Union(y)
	}
}

func BenchmarkBitSetIntersect(b *testing.B) {
	x, y := benchSets(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Intersect(y)
	}
}

func BenchmarkBitSetForEach(b *testing.B) {
	x, _ := benchSets(1024)
	b.ReportAllocs()
	sum := 0
	for i := 0; i < b.N; i++ {
		x.ForEach(func(e int) { sum += e })
	}
	_ = sum
}

func BenchmarkBitSetReset(b *testing.B) {
	x, _ := benchSets(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Reset(1024)
	}
}
