package topo

import (
	"fmt"
	"testing"

	"scotch/internal/sim"
)

var benchHops []Hop

// BenchmarkSwitchPath routes from every edge switch of a fat-tree to the
// same edge slot one pod over (a five-switch, cross-core path). cold
// drops the source's tree before each query, so every query builds one;
// warm reuses the cached trees.
func BenchmarkSwitchPath(b *testing.B) {
	for _, k := range []int{8, 16, 32} {
		cfg := DefaultFatTreeConfig(k)
		cfg.HostsPerEdge = 1
		ft := NewFatTree(sim.New(1), cfg)
		n := ft.Net
		var pairs [][2]uint64
		for p, edges := range ft.Edge {
			for e, ed := range edges {
				pairs = append(pairs, [2]uint64{ed.DPID, ft.Edge[(p+1)%k][e].DPID})
			}
		}
		for _, cold := range []bool{true, false} {
			name := fmt.Sprintf("k=%d/warm", k)
			if cold {
				name = fmt.Sprintf("k=%d/cold", k)
			}
			b.Run(name, func(b *testing.B) {
				for _, q := range pairs { // build the graph and every tree
					n.SwitchPath(q[0], q[1])
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q := pairs[i%len(pairs)]
					if cold {
						n.routes.trees[n.routes.index[q[0]]] = nil
					}
					hops, ok := n.SwitchPath(q[0], q[1])
					if !ok || len(hops) != 4 {
						b.Fatalf("path %v ok=%v", hops, ok)
					}
					benchHops = hops
				}
			})
		}
	}
}
