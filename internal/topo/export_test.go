package topo

// RouteCache reports the shortest-path trees cached on n, their bytes,
// and the bytes of the dense graph they were built over.
func RouteCache(n *Network) (trees, treeBytes, graphBytes int) {
	r := n.routes
	if r == nil {
		return 0, 0, 0
	}
	for _, t := range r.trees {
		if t != nil {
			trees++
			treeBytes += 4 * len(t)
		}
	}
	// ids, off, out, the trees slice headers and the scratch, plus about
	// 16 bytes per index entry.
	graphBytes = 8*len(r.ids) + 4*len(r.off) + 24*len(r.out) + 24*len(r.trees) +
		8*cap(r.dist) + 16*cap(r.heap) + 4*cap(r.walk) + 16*len(r.index)
	return trees, treeBytes, graphBytes
}
