package topo

import (
	"math"
	"slices"
)

// routes is the switch graph in dense form plus the single-source
// shortest-path trees built from it so far. A Network builds it on the
// first path query and drops it whole when AddSwitch, LinkSwitches or
// LinkSwitchesVia changes the graph.
type routes struct {
	ids   []uint64         // dense index -> dpid, ascending
	index map[uint64]int32 // dpid -> dense index

	// CSR adjacency: node i's out-edges are out[off[i]:off[i+1]], in the
	// order the links were made.
	off []int32
	out []denseEdge

	// trees[s] is nil until a query from node s builds it; then
	// trees[s][v] is the index in out of the edge that reaches v on the
	// tree rooted at s, or -1 for s itself and unreachable nodes. One
	// int32 per node and cached source is the whole cache.
	trees [][]int32

	// Scratch reused by every tree build and walk.
	dist []float64
	heap []heapItem
	walk []int32
}

type denseEdge struct {
	from, to int32
	outPort  uint32
	cost     float64
}

// newRoutes indexes every switch and edge endpoint in dpid order and lays
// the edges out per source node, keeping link order within a node.
func newRoutes(n *Network) *routes {
	ids := make([]uint64, 0, len(n.switches))
	for id := range n.switches {
		ids = append(ids, id)
	}
	for _, e := range n.edges {
		ids = append(ids, e.from, e.to)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	r := &routes{
		ids:   ids,
		index: make(map[uint64]int32, len(ids)),
		off:   make([]int32, len(ids)+1),
		out:   make([]denseEdge, len(n.edges)),
		trees: make([][]int32, len(ids)),
		dist:  make([]float64, len(ids)),
	}
	for i, id := range ids {
		r.index[id] = int32(i)
	}
	for _, e := range n.edges {
		r.off[r.index[e.from]+1]++
	}
	for i := range ids {
		r.off[i+1] += r.off[i]
	}
	next := slices.Clone(r.off[:len(ids)])
	for _, e := range n.edges {
		f := r.index[e.from]
		r.out[next[f]] = denseEdge{from: f, to: r.index[e.to], outPort: e.outPort, cost: e.cost}
		next[f]++
	}
	return r
}

// route returns the tree edges of the shortest path from switch a to
// switch b, the edge into b first. The slice is scratch, valid until the
// next query. ok is false when either switch is unknown or b is
// unreachable from a.
func (n *Network) route(a, b uint64) (*routes, []int32, bool) {
	if n.routes == nil {
		n.routes = newRoutes(n)
	}
	r := n.routes
	ai, ok := r.index[a]
	if !ok {
		return nil, nil, false
	}
	bi, ok := r.index[b]
	if !ok {
		return nil, nil, false
	}
	t := r.tree(ai)
	rev := r.walk[:0]
	for v := bi; v != ai; {
		ei := t[v]
		if ei < 0 {
			return nil, nil, false
		}
		rev = append(rev, ei)
		v = r.out[ei].from
	}
	r.walk = rev
	return r, rev, true
}

// appendHops appends the hops of the reversed edge list rev to dst in
// path order.
func (r *routes) appendHops(dst []Hop, rev []int32) []Hop {
	for i := len(rev) - 1; i >= 0; i-- {
		e := &r.out[rev[i]]
		dst = append(dst, Hop{DPID: r.ids[e.from], OutPort: e.outPort})
	}
	return dst
}

// tree returns the shortest-path tree rooted at node s, building it on
// first use. The search settles nodes in (distance, dpid) order and
// relaxes edges in link order with a strict <, so among equal-cost paths
// it keeps the one whose nodes settled first: the smallest dpid wins a
// distance tie. Every edge costs at least 1e-6, so a node's tree edge is
// fixed once it settles, and the full tree gives every target the same
// path as a search that stops at that target.
func (r *routes) tree(s int32) []int32 {
	if t := r.trees[s]; t != nil {
		return t
	}
	t := make([]int32, len(r.ids))
	dist := r.dist
	for i := range t {
		t[i] = -1
		dist[i] = math.Inf(1)
	}
	dist[s] = 0
	h := append(r.heap[:0], heapItem{0, s})
	for len(h) > 0 {
		var it heapItem
		it, h = heapPop(h)
		if it.d > dist[it.v] {
			continue // stale: it.v was reached cheaper after this push
		}
		for ei := r.off[it.v]; ei < r.off[it.v+1]; ei++ {
			e := &r.out[ei]
			if nd := it.d + e.cost; nd < dist[e.to] {
				dist[e.to] = nd
				t[e.to] = ei
				h = heapPush(h, heapItem{nd, e.to})
			}
		}
	}
	r.heap = h
	r.trees[s] = t
	return t
}

// heapItem is a tentative distance to node v. A node is pushed again on
// every strict improvement, and older entries are skipped when popped.
type heapItem struct {
	d float64
	v int32
}

// less orders the heap by distance, then by dense index, which is dpid
// order.
func (a heapItem) less(b heapItem) bool {
	return a.d < b.d || (a.d == b.d && a.v < b.v)
}

func heapPush(h []heapItem, it heapItem) []heapItem {
	h = append(h, it)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func heapPop(h []heapItem) (heapItem, []heapItem) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top, h
}
