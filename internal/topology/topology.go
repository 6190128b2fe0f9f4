// Package topology generates P2P overlay graphs, replacing the BRITE
// universal topology generator the paper's simulation uses (§6.2.1).
//
// The paper requires "a power law P2P network, with an average degree of 4";
// the Barabási–Albert preferential-attachment model is the canonical
// generator for that class (and the one BRITE implements). A Waxman
// generator is provided as an alternative flat random model, and a
// Watts–Strogatz one as a small-world model.
//
// Graph.Hops answers "how far is b from a, up to max" with a level-by-level
// BFS that stops the moment b is discovered — the protocol's
// closer-summary-peer comparison (§4.1). Searches run on pooled scratch
// arrays, so Hops allocates nothing in steady state, and they only read
// the graph, so any number of goroutines may search one concurrently
// (nothing mutates a graph once its generator has returned).
package topology

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Graph is an undirected overlay with per-edge latencies. Latencies are
// stored positionally: lat[u][i] is the latency of the edge to adj[u][i],
// so a 100k-node graph costs two flat runs per node instead of a map
// entry per edge (the map dominated memory at that scale). Generators
// call Compact after construction to re-pack both runs into single
// backing arrays (CSR layout).
type Graph struct {
	n     int
	adj   [][]int
	lat   [][]float64
	edges int
}

// NewGraph creates an edgeless graph of n nodes.
func NewGraph(n int) *Graph {
	return &Graph{n: n, adj: make([][]int, n), lat: make([][]float64, n)}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return g.n }

// Neighbors returns the adjacency list of node u; callers must not mutate.
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// Degree returns the degree of node u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// HasEdge reports whether u and v are adjacent.
func (g *Graph) HasEdge(u, v int) bool {
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// AddEdge inserts the undirected edge (u, v) with the given latency
// (seconds). Self-loops and duplicates are rejected.
func (g *Graph) AddEdge(u, v int, latency float64) error {
	if u == v {
		return fmt.Errorf("topology: self-loop at %d", u)
	}
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		return fmt.Errorf("topology: edge (%d,%d) out of range", u, v)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("topology: duplicate edge (%d,%d)", u, v)
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.lat[u] = append(g.lat[u], latency)
	g.lat[v] = append(g.lat[v], latency)
	g.edges++
	return nil
}

// LatencyOK returns the latency of edge (u, v) and whether the edge
// exists — one adjacency scan for the existence check and the lookup,
// where HasEdge+Latency would scan twice.
func (g *Graph) LatencyOK(u, v int) (float64, bool) {
	for i, w := range g.adj[u] {
		if w == v {
			return g.lat[u][i], true
		}
	}
	return 0, false
}

// AvgDegree returns the mean node degree (2E/N).
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(g.n)
}

// Compact re-packs every adjacency and latency run into one flat backing
// array each (CSR layout): per-node slices become exact-length windows
// into the shared arrays, eliminating the per-node append slack and
// allocator headers that dominate memory on 100k-node graphs. Full-cap
// subslicing keeps a later AddEdge safe — appending to a window
// reallocates that node's run instead of clobbering its neighbor's.
func (g *Graph) Compact() {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	flatA := make([]int, 0, total)
	flatL := make([]float64, 0, total)
	for u := range g.adj {
		start := len(flatA)
		flatA = append(flatA, g.adj[u]...)
		flatL = append(flatL, g.lat[u]...)
		end := len(flatA)
		g.adj[u] = flatA[start:end:end]
		g.lat[u] = flatL[start:end:end]
	}
}

// bfsScratch is the reusable working set of one breadth-first search: an
// epoch-stamped visited array (seen[v] == epoch means the current search
// discovered v, so starting a search is an increment, not an O(N) clear)
// and the queue, which holds every discovered node in BFS order. Scratches
// are pooled, so steady-state searches allocate nothing, and each search
// owns its scratch exclusively — any number of goroutines may search one
// graph at once.
type bfsScratch struct {
	seen  []uint32
	queue []int32
	epoch uint32
}

var bfsPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// start begins a search of an n-node graph from src: the queue holds src
// alone and nothing else is seen.
func (sc *bfsScratch) start(n, src int) {
	if len(sc.seen) < n {
		sc.seen = make([]uint32, n)
		sc.queue = make([]int32, 0, n)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stamps of old searches would alias epoch 1 onwards
		for i := range sc.seen {
			sc.seen[i] = 0
		}
		sc.epoch = 1
	}
	sc.seen[src] = sc.epoch
	sc.queue = append(sc.queue[:0], int32(src))
}

// expand runs one BFS level — the package's one traversal routine: every
// not yet seen neighbor of queue[from:to] is stamped and appended to the
// queue. It reports whether target was among them, returning at once when
// it is (pass -1 to exhaust the level).
func (g *Graph) expand(sc *bfsScratch, from, to, target int) bool {
	seen, epoch, queue := sc.seen, sc.epoch, sc.queue
	for _, u := range queue[from:to] {
		for _, v := range g.adj[u] {
			if seen[v] == epoch {
				continue
			}
			seen[v] = epoch
			queue = append(queue, int32(v))
			if v == target {
				sc.queue = queue
				return true
			}
		}
	}
	sc.queue = queue
	return false
}

// Hops returns the hop distance from a to b over the static topology, or
// max+1 when b is farther than max hops (or unreachable). It is a bounded
// BFS that returns the moment b is discovered, so the §4.1 "which summary
// peer is closer" question costs the few levels between a client and a
// hub, not the whole radius-max ball. Steady state allocates nothing, and
// concurrent calls on one graph are safe.
func (g *Graph) Hops(a, b, max int) int {
	sc := bfsPool.Get().(*bfsScratch)
	d := g.hops(sc, a, b, max)
	bfsPool.Put(sc)
	return d
}

// hops is Hops on a caller-owned scratch.
func (g *Graph) hops(sc *bfsScratch, a, b, max int) int {
	if a == b {
		return 0
	}
	sc.start(g.n, a)
	for h, from := 1, 0; h <= max && from < len(sc.queue); h++ {
		to := len(sc.queue)
		if g.expand(sc, from, to, b) {
			return h
		}
		from = to
	}
	return max + 1
}

// DisjointStars builds `clusters` disconnected star components of `size`
// nodes each (one hub plus size-1 spokes, every spoke adjacent only to its
// hub) with the given uniform edge latency, returning the graph and the
// hub ids. Unlike the generators above it is deliberately NOT connected:
// the components model fully independent summary domains, which makes
// protocol runs on the concurrent transport free of cross-domain message
// races — the fixture of the protocol tests that need independent domains.
func DisjointStars(clusters, size int, latency float64) (*Graph, []int) {
	if clusters < 1 || size < 2 {
		panic(fmt.Sprintf("topology: DisjointStars needs clusters >= 1 and size >= 2, got %d, %d", clusters, size))
	}
	g := NewGraph(clusters * size)
	hubs := make([]int, clusters)
	for c := 0; c < clusters; c++ {
		hub := c * size
		hubs[c] = hub
		for s := 1; s < size; s++ {
			if err := g.AddEdge(hub, hub+s, latency); err != nil {
				panic(err) // unreachable: construction is duplicate-free
			}
		}
	}
	g.Compact()
	return g, hubs
}

// LatencyModel draws per-edge latencies.
type LatencyModel func(rng *rand.Rand) float64

// UniformLatency draws uniformly from [lo, hi] seconds.
func UniformLatency(lo, hi float64) LatencyModel {
	return func(rng *rand.Rand) float64 { return lo + rng.Float64()*(hi-lo) }
}

// DefaultLatency is a 10–200 ms uniform WAN latency model.
func DefaultLatency() LatencyModel { return UniformLatency(0.010, 0.200) }

// BarabasiAlbert generates a power-law graph by preferential attachment:
// every new node attaches m edges to existing nodes with probability
// proportional to their degree. m=2 yields the paper's average degree ≈ 4.
func BarabasiAlbert(n, m int, lat LatencyModel, rng *rand.Rand) (*Graph, error) {
	if m < 1 {
		return nil, errors.New("topology: m must be >= 1")
	}
	if n < m+1 {
		return nil, fmt.Errorf("topology: need n >= m+1, got n=%d m=%d", n, m)
	}
	if lat == nil {
		lat = DefaultLatency()
	}
	g := NewGraph(n)
	// Seed clique over the first m+1 nodes.
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			if err := g.AddEdge(u, v, lat(rng)); err != nil {
				return nil, err
			}
		}
	}
	// Repeated-node list: each node appears once per incident edge, so
	// sampling uniformly from it is degree-proportional sampling.
	var targets []int
	for u := 0; u <= m; u++ {
		for range g.adj[u] {
			targets = append(targets, u)
		}
	}
	for u := m + 1; u < n; u++ {
		chosen := make(map[int]bool, m)
		for len(chosen) < m {
			v := targets[rng.Intn(len(targets))]
			if v != u && !chosen[v] {
				chosen[v] = true
			}
		}
		picks := make([]int, 0, m)
		for v := range chosen {
			picks = append(picks, v)
		}
		sort.Ints(picks) // map order is random; keep runs reproducible
		for _, v := range picks {
			if err := g.AddEdge(u, v, lat(rng)); err != nil {
				return nil, err
			}
			targets = append(targets, u, v)
		}
	}
	g.Compact()
	return g, nil
}

// Waxman generates the classic BRITE flat random topology: nodes are placed
// on a unit square and edges appear with probability
// alpha * exp(-d / (beta * L)) where d is Euclidean distance and L the
// diagonal. A spanning pass guarantees connectivity.
func Waxman(n int, alpha, beta float64, lat LatencyModel, rng *rand.Rand) (*Graph, error) {
	if n < 2 {
		return nil, errors.New("topology: waxman needs n >= 2")
	}
	if alpha <= 0 || alpha > 1 || beta <= 0 {
		return nil, fmt.Errorf("topology: invalid waxman parameters alpha=%g beta=%g", alpha, beta)
	}
	if lat == nil {
		lat = DefaultLatency()
	}
	type pt struct{ x, y float64 }
	pts := make([]pt, n)
	for i := range pts {
		pts[i] = pt{rng.Float64(), rng.Float64()}
	}
	l := math.Sqrt2
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			d := math.Hypot(pts[u].x-pts[v].x, pts[u].y-pts[v].y)
			if rng.Float64() < alpha*math.Exp(-d/(beta*l)) {
				if err := g.AddEdge(u, v, lat(rng)); err != nil {
					return nil, err
				}
			}
		}
	}
	// Stitch components onto node 0's component to guarantee connectivity.
	comp := components(g)
	for c := 1; c < len(comp); c++ {
		u := comp[c][rng.Intn(len(comp[c]))]
		v := comp[0][rng.Intn(len(comp[0]))]
		if err := g.AddEdge(u, v, lat(rng)); err != nil {
			return nil, err
		}
	}
	g.Compact()
	return g, nil
}

func components(g *Graph) [][]int {
	seen := make([]bool, g.n)
	var out [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		out = append(out, comp)
	}
	return out
}

// WattsStrogatz generates the classic small-world model: a ring lattice of
// degree k (even) whose edges are rewired with probability beta. The paper
// leans on small-world features of real P2P graphs ("the existing P2P
// networks have small-world features", §5.2.2); this generator provides a
// controlled way to study them next to the BA model.
func WattsStrogatz(n, k int, beta float64, lat LatencyModel, rng *rand.Rand) (*Graph, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: watts-strogatz needs even k >= 2, got %d", k)
	}
	if n <= k {
		return nil, fmt.Errorf("topology: need n > k, got n=%d k=%d", n, k)
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("topology: beta %g out of [0,1]", beta)
	}
	if lat == nil {
		lat = DefaultLatency()
	}
	g := NewGraph(n)
	// Ring lattice: each node connects to its k/2 clockwise neighbors.
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if err := g.AddEdge(u, v, lat(rng)); err != nil {
				return nil, err
			}
		}
	}
	// Rewire each clockwise edge with probability beta.
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if rng.Float64() >= beta {
				continue
			}
			// Pick a new target avoiding self-loops and duplicates.
			for attempt := 0; attempt < 32; attempt++ {
				w := rng.Intn(n)
				if w == u || g.HasEdge(u, w) {
					continue
				}
				g.removeEdge(u, v)
				if err := g.AddEdge(u, w, lat(rng)); err == nil {
					break
				}
				// Extremely unlikely; restore the original edge.
				if err := g.AddEdge(u, v, lat(rng)); err != nil {
					return nil, err
				}
				break
			}
		}
	}
	// Guarantee connectivity the same way the Waxman generator does.
	comp := components(g)
	for c := 1; c < len(comp); c++ {
		u := comp[c][rng.Intn(len(comp[c]))]
		v := comp[0][rng.Intn(len(comp[0]))]
		if g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v, lat(rng)); err != nil {
			return nil, err
		}
	}
	g.Compact()
	return g, nil
}

// removeEdge deletes an undirected edge (no-op when absent).
func (g *Graph) removeEdge(u, v int) {
	if !g.HasEdge(u, v) {
		return
	}
	g.removeHalf(u, v)
	g.removeHalf(v, u)
	g.edges--
}

// removeHalf drops v from u's adjacency and latency runs in lockstep.
func (g *Graph) removeHalf(u, v int) {
	for i, w := range g.adj[u] {
		if w == v {
			g.adj[u] = append(g.adj[u][:i], g.adj[u][i+1:]...)
			g.lat[u] = append(g.lat[u][:i], g.lat[u][i+1:]...)
			return
		}
	}
}
