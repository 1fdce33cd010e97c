package workloads

import "slices"

// graph is a CSR-format directed graph with sorted adjacency lists (sorted
// neighbors are required by the triangle-counting merge intersection and
// give the GAP kernels realistic memory behaviour).
type graph struct {
	n    int
	offs []uint64 // n+1 offsets into nbrs
	nbrs []uint64
	w    []uint64 // per-edge weights (for sssp)
}

// genGraph builds a synthetic graph with a skewed degree distribution
// (Kronecker-flavoured endpoint selection, like the GAP generator's output
// shape): most vertices have near-average degree, a few act as hubs.
func genGraph(n, avgDeg int, seed uint64) *graph {
	m := n * avgDeg
	return buildCSR(n, func(add func(u, v int)) {
		r := newRng(seed)
		for e := 0; e < m; e++ {
			u := skewedVertex(r, n)
			v := skewedVertex(r, n)
			if u != v {
				add(u, v)
			}
		}
	}, seed^0xABCD)
}

// skewedVertex picks a vertex with a power-law-ish bias: a few repeated
// halvings of the range concentrate probability on low vertex ids.
func skewedVertex(r *rng, n int) int {
	v := r.intn(n)
	for r.next()&3 == 0 { // 25% chance per level to bias toward hubs
		v /= 2
	}
	return v
}

// undirected returns g with every edge mirrored (needed by bfs/cc/bc).
func undirected(g *graph) *graph {
	return buildCSR(g.n, func(add func(u, v int)) {
		for u := 0; u < g.n; u++ {
			for _, v := range g.nbrs[g.offs[u]:g.offs[u+1]] {
				add(u, int(v))
				add(int(v), u)
			}
		}
	}, 0xBEEF)
}

// buildCSR builds the graph of n vertices whose edges the edges function
// streams to add, in three flat arrays: it streams them twice, once to
// count each vertex's degree and once to scatter each edge into its
// vertex's slots, then sorts each vertex's neighbours and drops parallel
// edges (they skew triangle counting) in place. Edge weights are drawn
// from an rng seeded with wseed, one per kept edge in CSR order.
func buildCSR(n int, edges func(add func(u, v int)), wseed uint64) *graph {
	offs := make([]uint64, n+1)
	edges(func(u, _ int) { offs[u+1]++ })
	for u := 0; u < n; u++ {
		offs[u+1] += offs[u]
	}
	nbrs := make([]uint64, offs[n])
	next := make([]uint64, n)
	copy(next, offs[:n])
	edges(func(u, v int) {
		nbrs[next[u]] = uint64(v)
		next[u]++
	})
	// Compact toward the front: the write cursor never passes the read one.
	kept, lo := 0, 0
	for u := 0; u < n; u++ {
		hi := int(offs[u+1])
		ns := nbrs[lo:hi]
		slices.Sort(ns)
		prev := ^uint64(0)
		for _, v := range ns {
			if v != prev {
				nbrs[kept] = v
				kept++
				prev = v
			}
		}
		lo = hi
		offs[u+1] = uint64(kept)
	}
	g := &graph{n: n, offs: offs, nbrs: nbrs[:kept], w: make([]uint64, kept)}
	wr := newRng(wseed)
	for i := range g.w {
		g.w[i] = uint64(wr.intn(15)) + 1
	}
	return g
}

// graphScale maps a workload scale to (vertices, average degree).
func graphScale(scale int) (int, int) {
	switch {
	case scale <= 0:
		return 256, 6 // tiny: unit tests
	case scale == 1:
		return 8192, 10 // benchmark default
	default:
		return 8192 * scale, 10
	}
}
