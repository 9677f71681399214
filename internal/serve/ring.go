package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// DefaultVnodes is the number of virtual nodes each peer contributes to
// the ring.  128 vnodes keeps the expected key share per peer within a
// few percent of uniform for small clusters (the ring test pins ±20%
// across 3 peers) while ring construction and lookup stay trivial.
const DefaultVnodes = 128

// Ring is a consistent-hash ring over server peers.  Each peer owns the
// arc of ringHash key space that precedes its virtual-node positions;
// Owner maps a cache key to the peer responsible for it.  Every peer
// builds its ring from the same `-peers` list, so all peers agree on
// ownership, and adding or removing one peer remaps only the keys on
// the arcs its vnodes covered (~1/N of the space) instead of reshuffling
// everything the way `hash(key) % N` would.
type Ring struct {
	vnodes int
	nodes  []string
	points []ringPoint // sorted by (hash, node, vnode)
}

type ringPoint struct {
	hash  uint64
	node  int32 // index into nodes
	vnode int32
}

// NewRing builds a ring over the given peer identifiers (deduplicated;
// order-insensitive) with `vnodes` virtual nodes per peer (<=0 picks
// DefaultVnodes).  An empty node list yields a nil ring, on which Owner
// reports every key as locally owned.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		uniq = append(uniq, n)
	}
	if len(uniq) == 0 {
		return nil
	}
	// Sorted nodes make the ring identical no matter how the peer list
	// was ordered on each server's command line.
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, nodes: uniq}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for ni, n := range uniq {
		for v := 0; v < vnodes; v++ {
			h := ringHash(n + "#" + strconv.Itoa(v))
			r.points = append(r.points, ringPoint{hash: h, node: int32(ni), vnode: int32(v)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Hash ties (vanishingly rare) break deterministically so every
		// peer still agrees on ownership.
		if a.node != b.node {
			return r.nodes[a.node] < r.nodes[b.node]
		}
		return a.vnode < b.vnode
	})
	return r
}

// Owner returns the peer that owns key: the peer whose first vnode
// position is at or clockwise-after the key's hash (wrapping at the top
// of the space).
func (r *Ring) Owner(key string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.nodes[r.points[i].node]
}

// Nodes lists the ring's peers in canonical (sorted) order.
func (r *Ring) Nodes() []string {
	if r == nil {
		return nil
	}
	return append([]string(nil), r.nodes...)
}

// ringHash places a cache key or vnode label on the ring: the first 8
// bytes of its SHA-256, big-endian.  Any well-mixed 64-bit hash works;
// SHA-256 is the one the cache keys already use.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
