// Package dataflow provides the dense bit vectors and the iterative
// dataflow analyses (liveness, availability, anticipability) that the
// optimization passes share.
package dataflow

import (
	"math/bits"
	"strconv"
	"strings"
)

// BitSet is a fixed-capacity dense bit vector.  A BitSet value is a
// view of words it shares with its copies, so sets — a row of a
// BitMatrix included — are passed and returned by value without
// allocating.  All binary operations require operands of identical
// capacity.
type BitSet struct {
	words []uint64
	n     int
}

// NewBitSet returns an empty set with capacity for n elements.
func NewBitSet(n int) BitSet {
	return BitSet{words: make([]uint64, wordsFor(n)), n: n}
}

// wordsFor returns the number of words a capacity-n set takes.
func wordsFor(n int) int { return (n + 63) / 64 }

// A BitMatrix is a family of capacity-n sets, one per row — the
// per-block vectors of a dataflow problem are indexed by block ID — in
// one flat array of words.  Row returns a BitSet view of a row's words:
// no row has a header or a pointer of its own.
type BitMatrix struct {
	words   []uint64
	rows, n int
	w       int // words per row
}

// NewBitMatrix returns rows empty capacity-n sets.
func NewBitMatrix(rows, n int) BitMatrix {
	w := wordsFor(n)
	return BitMatrix{words: make([]uint64, rows*w), rows: rows, n: n, w: w}
}

// Row returns row i, a view of the matrix's words.
func (m BitMatrix) Row(i int) BitSet {
	return BitSet{words: m.words[i*m.w : (i+1)*m.w : (i+1)*m.w], n: m.n}
}

// Rows returns the number of rows.
func (m BitMatrix) Rows() int { return m.rows }

// Len returns the capacity of every row.
func (m BitMatrix) Len() int { return m.n }

// Sub returns rows [lo, hi) of m as a matrix that shares m's words.
func (m BitMatrix) Sub(lo, hi int) BitMatrix {
	return BitMatrix{words: m.words[lo*m.w : hi*m.w : hi*m.w], rows: hi - lo, n: m.n, w: m.w}
}

// SetAll fills every row.
func (m BitMatrix) SetAll() {
	for i := range m.rows {
		m.Row(i).SetAll()
	}
}

// Resize makes m hold rows rows: rows past the new count are dropped
// and added rows are empty.  Rows kept keep their contents, but views
// taken before a Resize that adds rows may no longer be m's.
func (m *BitMatrix) Resize(rows int) {
	if need := rows * m.w; need <= len(m.words) {
		m.words = m.words[:need]
	} else {
		m.words = append(m.words, make([]uint64, need-len(m.words))...)
	}
	m.rows = rows
}

// A FamilyStore hands out matrices and sets from word arrays it keeps.
// After Reset the next ones reuse the arrays of the last ones, so a
// caller that solves one round of problems after another allocates
// only when a round needs more than the rounds before it.  A nil store
// allocates each afresh.
type FamilyStore struct {
	chunks   [][]uint64
	at, used int // the array being handed out, and how much of it is
}

// Reset takes back every matrix and set the store handed out: they
// must no longer be used.
func (s *FamilyStore) Reset() { s.at, s.used = 0, 0 }

// Family returns rows empty capacity-n sets, like NewBitMatrix, valid
// until the next Reset.
func (s *FamilyStore) Family(rows, n int) BitMatrix {
	if s == nil {
		return NewBitMatrix(rows, n)
	}
	w := wordsFor(n)
	return BitMatrix{words: s.take(rows * w), rows: rows, n: n, w: w}
}

// Set returns one empty capacity-n set, valid until the next Reset.
func (s *FamilyStore) Set(n int) BitSet { return s.Family(1, n).Row(0) }

// take returns k zeroed words: the next k of an array the store keeps,
// or, when no array left has room, a new array that later rounds
// reuse.
func (s *FamilyStore) take(k int) []uint64 {
	for ; s.at < len(s.chunks); s.at, s.used = s.at+1, 0 {
		if end := s.used + k; end <= len(s.chunks[s.at]) {
			words := s.chunks[s.at][s.used:end:end]
			s.used = end
			clear(words)
			return words
		}
	}
	if s.chunks == nil {
		s.chunks = make([][]uint64, 0, 16)
	}
	s.chunks = append(s.chunks, make([]uint64, k))
	s.used = k
	return s.chunks[s.at]
}

// Len returns the set's capacity.
func (s BitSet) Len() int { return s.n }

// Set adds element i.
func (s BitSet) Set(i int) { s.words[i>>6] |= 1 << uint(i&63) }

// Clear removes element i.
func (s BitSet) Clear(i int) { s.words[i>>6] &^= 1 << uint(i&63) }

// Has reports whether element i is in the set.
func (s BitSet) Has(i int) bool { return s.words[i>>6]&(1<<uint(i&63)) != 0 }

// SetAll adds every element in [0, Len).
func (s BitSet) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// ClearAll empties the set.
func (s BitSet) ClearAll() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// trim zeroes the bits beyond capacity so Equal and Count stay exact.
func (s BitSet) trim() {
	if extra := s.n & 63; extra != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(extra)) - 1
	}
}

// Copy returns an independent duplicate of the set.
func (s BitSet) Copy() BitSet {
	return BitSet{words: append([]uint64(nil), s.words...), n: s.n}
}

// CopyFrom overwrites s with t's contents.
func (s BitSet) CopyFrom(t BitSet) {
	copy(s.words, t.words)
}

// Union adds every element of t; it reports whether s changed.
func (s BitSet) Union(t BitSet) bool {
	changed := false
	for i, w := range t.words {
		if nw := s.words[i] | w; nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Intersect keeps only the elements also in t; reports whether s changed.
func (s BitSet) Intersect(t BitSet) bool {
	changed := false
	for i, w := range t.words {
		if nw := s.words[i] & w; nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// UnionDiff adds every element of t that is not in u — s ∪= (t ∖ u) —
// without materializing the difference.  The dataflow solvers use it
// for terms like LATERIN(i) ∩ ¬ANTLOC(i) that would otherwise cost a
// temporary vector per edge per iteration.
func (s BitSet) UnionDiff(t, u BitSet) {
	for i, w := range t.words {
		s.words[i] |= w &^ u.words[i]
	}
}

// AndNotOf overwrites s with t ∖ u.  Unlike Subtract it does not read
// s's previous contents, so a scratch vector can absorb difference
// terms like EARLIEST(b) = ANTIN(b) ∖ AVIN(b) in one pass with no
// intermediate copy.
func (s BitSet) AndNotOf(t, u BitSet) {
	for i, w := range t.words {
		s.words[i] = w &^ u.words[i]
	}
}

// Subtract removes every element of t; reports whether s changed.
func (s BitSet) Subtract(t BitSet) bool {
	changed := false
	for i, w := range t.words {
		if nw := s.words[i] &^ w; nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Equal reports whether the two sets hold exactly the same elements.
func (s BitSet) Equal(t BitSet) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// Count returns the number of elements in the set.
func (s BitSet) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s BitSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for each element in ascending order.
func (s BitSet) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// String renders the set as {1, 5, 9} for debugging.
func (s BitSet) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		sb.WriteString(strconv.Itoa(i))
	})
	sb.WriteByte('}')
	return sb.String()
}
