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
	r := newRng(seed)
	adj := make([][]uint64, n)
	m := n * avgDeg
	for e := 0; e < m; e++ {
		u := skewedVertex(r, n)
		v := skewedVertex(r, n)
		if u == v {
			continue
		}
		adj[u] = append(adj[u], uint64(v))
	}
	g := &graph{n: n, offs: make([]uint64, n+1)}
	for u := 0; u < n; u++ {
		ns := adj[u]
		slices.Sort(ns)
		// Deduplicate (parallel edges skew triangle counting).
		ded := ns[:0]
		var prev uint64 = ^uint64(0)
		for _, v := range ns {
			if v != prev {
				ded = append(ded, v)
				prev = v
			}
		}
		g.nbrs = append(g.nbrs, ded...)
		g.offs[u+1] = uint64(len(g.nbrs))
	}
	g.w = make([]uint64, len(g.nbrs))
	wr := newRng(seed ^ 0xABCD)
	for i := range g.w {
		g.w[i] = uint64(wr.intn(15)) + 1
	}
	return g
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
	adj := make([][]uint64, g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.nbrs[g.offs[u]:g.offs[u+1]] {
			adj[u] = append(adj[u], v)
			adj[int(v)] = append(adj[int(v)], uint64(u))
		}
	}
	out := &graph{n: g.n, offs: make([]uint64, g.n+1)}
	for u := 0; u < g.n; u++ {
		ns := adj[u]
		slices.Sort(ns)
		ded := ns[:0]
		var prev uint64 = ^uint64(0)
		for _, v := range ns {
			if v != prev {
				ded = append(ded, v)
				prev = v
			}
		}
		out.nbrs = append(out.nbrs, ded...)
		out.offs[u+1] = uint64(len(out.nbrs))
	}
	out.w = make([]uint64, len(out.nbrs))
	wr := newRng(0xBEEF)
	for i := range out.w {
		out.w[i] = uint64(wr.intn(15)) + 1
	}
	return out
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
