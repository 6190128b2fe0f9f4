package topology

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	if err := g.AddEdge(0, 1, 0.05); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 0.07); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 || g.edges != 2 {
		t.Errorf("shape wrong: n=%d e=%d", g.Len(), g.edges)
	}
	if !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Error("HasEdge wrong")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Error("Degree wrong")
	}
	if l, ok := g.LatencyOK(0, 1); !ok || l != 0.05 {
		t.Errorf("LatencyOK(0,1) = %g, %v", l, ok)
	}
	if l, ok := g.LatencyOK(1, 0); !ok || l != 0.05 {
		t.Error("latency not symmetric")
	}
	if _, ok := g.LatencyOK(0, 3); ok {
		t.Error("absent edge reported present")
	}
	if g.AvgDegree() != 1 {
		t.Errorf("AvgDegree = %g", g.AvgDegree())
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 5, 1); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := g.AddEdge(-1, 0, 1); err == nil {
		t.Error("negative accepted")
	}
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0, 1); err == nil {
		t.Error("duplicate accepted")
	}
}

// connected reports whether g is a single component (an empty graph is).
func connected(g *Graph) bool { return len(components(g)) <= 1 }

// clustering returns the average local clustering coefficient, a
// small-world indicator (§5.2.2 cites small-world features of P2P graphs).
func clustering(g *Graph) float64 {
	total, counted := 0.0, 0
	for u := 0; u < g.Len(); u++ {
		nb := g.Neighbors(u)
		d := len(nb)
		if d < 2 {
			continue
		}
		links := 0
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				if g.HasEdge(nb[i], nb[j]) {
					links++
				}
			}
		}
		total += 2 * float64(links) / float64(d*(d-1))
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// hillExponent fits the tail exponent of the degree distribution by the
// Hill maximum-likelihood estimator over degrees >= kmin. BA graphs
// should report an exponent near 3.
func hillExponent(g *Graph, kmin int) float64 {
	var sum float64
	n := 0
	for u := 0; u < g.Len(); u++ {
		if k := g.Degree(u); k >= kmin {
			sum += math.Log(float64(k) / float64(kmin))
			n++
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return 1 + float64(n)/sum
}

// avgPathLength estimates the average shortest-path length by BFS from
// a sample of random sources (a small-world indicator next to
// clustering).
func avgPathLength(g *Graph, samples int, rng *rand.Rand) float64 {
	var sum, count float64
	for s := 0; s < samples && g.Len() > 1; s++ {
		for _, d := range refBFSWithin(g, rng.Intn(g.Len()), g.Len()) {
			if d > 0 {
				sum += float64(d)
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return sum / count
}

func TestConnectedAndComponents(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 1)
	if c := components(g); len(c) != 3 {
		t.Errorf("components = %v, want {0,1} {2} {3}", c)
	}
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	if !connected(g) {
		t.Error("connected graph reported disconnected")
	}
	if !connected(NewGraph(0)) {
		t.Error("empty graph should be connected")
	}
}

func TestBarabasiAlbertProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := BarabasiAlbert(2000, 2, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !connected(g) {
		t.Error("BA graph not connected")
	}
	// Average degree ~ 2m = 4 (slightly above due to the seed clique).
	if d := g.AvgDegree(); d < 3.5 || d > 4.5 {
		t.Errorf("avg degree = %g, want ~4", d)
	}
	// Heavy tail: the hubs should be far above the mean.
	maxDeg := 0
	for u := 0; u < g.Len(); u++ {
		maxDeg = max(maxDeg, g.Degree(u))
	}
	if maxDeg < 20 {
		t.Errorf("max degree = %d; no hubs in a BA graph?", maxDeg)
	}
	// Power-law exponent near 3.
	if gamma := hillExponent(g, 4); gamma < 2 || gamma > 4.5 {
		t.Errorf("estimated exponent = %g, want ~3", gamma)
	}
	// Latencies drawn from the default model are in [10ms, 200ms].
	for u := 0; u < g.Len(); u++ {
		for _, v := range g.Neighbors(u) {
			if l, _ := g.LatencyOK(u, v); l < 0.010 || l > 0.200 {
				t.Fatalf("latency %g out of default range", l)
			}
		}
	}
}

func TestBarabasiAlbertErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := BarabasiAlbert(3, 0, nil, rng); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := BarabasiAlbert(2, 2, nil, rng); err == nil {
		t.Error("n<m+1 accepted")
	}
}

func TestBarabasiAlbertDeterminism(t *testing.T) {
	a, err := BarabasiAlbert(300, 2, nil, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BarabasiAlbert(300, 2, nil, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 300; u++ {
		if len(a.Neighbors(u)) != len(b.Neighbors(u)) {
			t.Fatalf("node %d degree differs across same-seed runs", u)
		}
	}
}

func TestWaxman(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := Waxman(400, 0.2, 0.15, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !connected(g) {
		t.Error("waxman graph not connected (spanning pass failed)")
	}
	if g.AvgDegree() < 1 {
		t.Errorf("waxman avg degree = %g, suspiciously sparse", g.AvgDegree())
	}
	if _, err := Waxman(1, 0.2, 0.15, nil, rng); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := Waxman(10, 0, 0.15, nil, rng); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := Waxman(10, 0.5, -1, nil, rng); err == nil {
		t.Error("beta<0 accepted")
	}
}

func TestClusteringCoefficient(t *testing.T) {
	// Triangle: clustering 1.
	g := NewGraph(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 1)
	if c := clustering(g); c != 1 {
		t.Errorf("triangle clustering = %g", c)
	}
	// Star: clustering 0.
	s := NewGraph(4)
	s.AddEdge(0, 1, 1)
	s.AddEdge(0, 2, 1)
	s.AddEdge(0, 3, 1)
	if c := clustering(s); c != 0 {
		t.Errorf("star clustering = %g", c)
	}
	if c := clustering(NewGraph(2)); c != 0 {
		t.Errorf("edgeless clustering = %g", c)
	}
}

func TestUniformLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := UniformLatency(1, 2)
	for i := 0; i < 100; i++ {
		if l := m(rng); l < 1 || l > 2 {
			t.Fatalf("latency %g out of [1,2]", l)
		}
	}
}

// Property: BA graphs of any admissible size are connected with average
// degree close to 2m.
func TestQuickBAConnected(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%500) + 10
		g, err := BarabasiAlbert(n, 2, nil, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		return connected(g) && g.AvgDegree() >= 3 && g.AvgDegree() <= 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: every edge is symmetric in the adjacency lists.
func TestQuickEdgeSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		g, err := BarabasiAlbert(200, 3, nil, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		for u := 0; u < g.Len(); u++ {
			for _, v := range g.Neighbors(u) {
				if !g.HasEdge(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestWattsStrogatz(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, err := WattsStrogatz(500, 4, 0.1, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !connected(g) {
		t.Error("WS graph not connected")
	}
	if d := g.AvgDegree(); d < 3.5 || d > 4.5 {
		t.Errorf("avg degree = %g, want ~4", d)
	}
	// Small-world: much higher clustering than a BA graph of same size,
	// with comparable path lengths.
	ba, err := BarabasiAlbert(500, 2, nil, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if clustering(g) <= clustering(ba) {
		t.Errorf("WS clustering (%g) not above BA (%g)", clustering(g), clustering(ba))
	}
	if apl := avgPathLength(g, 10, rng); apl <= 1 || apl > 20 {
		t.Errorf("WS avg path length = %g, not small-world", apl)
	}
}

func TestWattsStrogatzErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := WattsStrogatz(10, 3, 0.1, nil, rng); err == nil {
		t.Error("odd k accepted")
	}
	if _, err := WattsStrogatz(4, 4, 0.1, nil, rng); err == nil {
		t.Error("n <= k accepted")
	}
	if _, err := WattsStrogatz(10, 4, 1.5, nil, rng); err == nil {
		t.Error("beta > 1 accepted")
	}
}

func TestWattsStrogatzLattice(t *testing.T) {
	// beta = 0: the pure ring lattice, fully regular.
	g, err := WattsStrogatz(20, 4, 0, nil, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 20; u++ {
		if g.Degree(u) != 4 {
			t.Fatalf("lattice degree(%d) = %d, want 4", u, g.Degree(u))
		}
	}
	// Lattice clustering for k=4 is exactly 0.5.
	if c := clustering(g); c < 0.45 || c > 0.55 {
		t.Errorf("lattice clustering = %g, want 0.5", c)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1)
	g.removeEdge(0, 1)
	if g.HasEdge(0, 1) || g.edges != 0 {
		t.Error("removeEdge failed")
	}
	g.removeEdge(0, 1) // absent: no-op
	if g.edges != 0 {
		t.Error("double remove corrupted graph")
	}
}

func TestAvgPathLengthEdgeCases(t *testing.T) {
	if avgPathLength(NewGraph(1), 3, rand.New(rand.NewSource(1))) != 0 {
		t.Error("single node path length nonzero")
	}
}

func TestDisjointStars(t *testing.T) {
	g, hubs := DisjointStars(3, 5, 0.02)
	if g.Len() != 15 || len(hubs) != 3 {
		t.Fatalf("got %d nodes, %d hubs", g.Len(), len(hubs))
	}
	if connected(g) {
		t.Error("DisjointStars must not be connected across clusters")
	}
	for c, hub := range hubs {
		if g.Degree(hub) != 4 {
			t.Errorf("hub %d degree = %d, want 4", hub, g.Degree(hub))
		}
		for s := 1; s < 5; s++ {
			v := c*5 + s
			if g.Degree(v) != 1 || !g.HasEdge(hub, v) {
				t.Errorf("spoke %d not a leaf of hub %d", v, hub)
			}
		}
	}
}
