package dataflow

import (
	"testing"
)

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

func benchSets(n int) (BitSet, BitSet) {
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
