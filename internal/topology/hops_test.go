package topology

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// refBFSWithin is the map-based frontier BFS that BFSWithin was before it
// moved onto the shared slice kernel — the independent reference every
// test below compares the kernel's three users against.
func refBFSWithin(g *Graph, src, hops int) map[int]int {
	dist := map[int]int{src: 0}
	frontier := []int{src}
	for h := 0; h < hops && len(frontier) > 0; h++ {
		var next []int
		for _, u := range frontier {
			for _, v := range g.Neighbors(u) {
				if _, ok := dist[v]; !ok {
					dist[v] = h + 1
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist
}

// refHops reads one distance out of a reference ball the way core.hopsTo
// used to: absent means farther than max.
func refHops(ball map[int]int, b, max int) int {
	if d, ok := ball[b]; ok {
		return d
	}
	return max + 1
}

// hopsFixtures builds one graph per generator at roughly n nodes.
func hopsFixtures(t testing.TB, n int) map[string]*Graph {
	t.Helper()
	ba, err := BarabasiAlbert(n, 2, nil, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	wax, err := Waxman(n, 0.15, 0.2, nil, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := WattsStrogatz(n, 4, 0.1, nil, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	stars, _ := DisjointStars(n/20, 20, 0.01)
	return map[string]*Graph{"BarabasiAlbert": ba, "Waxman": wax, "WattsStrogatz": ws, "DisjointStars": stars}
}

// TestHopsMatchesBFSAllPairs checks, on every generator, every (a, b) pair
// of a small graph at several radii — max=0, radii that cut the graph
// short (so distances of exactly max and max+1 both occur) and one that
// covers it — for both Hops and the rebuilt BFSWithin.
func TestHopsMatchesBFSAllPairs(t *testing.T) {
	for name, g := range hopsFixtures(t, 160) {
		sawAt, sawBeyond := false, false
		for _, max := range []int{0, 1, 2, 3, 6, g.Len()} {
			for a := 0; a < g.Len(); a++ {
				want := refBFSWithin(g, a, max)
				if got := g.BFSWithin(a, max); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: BFSWithin(%d,%d) = %v, want %v", name, a, max, got, want)
				}
				full := refBFSWithin(g, a, g.Len())
				for b := 0; b < g.Len(); b++ {
					w := refHops(want, b, max)
					if got := g.Hops(a, b, max); got != w {
						t.Fatalf("%s: Hops(%d,%d,%d) = %d, want %d", name, a, b, max, got, w)
					}
					switch d, ok := full[b]; {
					case ok && d == max && max > 0:
						sawAt = true
					case ok && d == max+1, !ok:
						sawBeyond = true
					}
				}
			}
		}
		if !sawAt || !sawBeyond {
			t.Errorf("%s: boundary cases not exercised (at max %v, beyond %v)", name, sawAt, sawBeyond)
		}
	}
}

// TestHopsMatchesBFSSampled draws 5k random pairs (100 sources × 50
// targets, the source itself among them) on 2k-node graphs at the radius
// core uses.
func TestHopsMatchesBFSSampled(t *testing.T) {
	const max = 6
	for name, g := range hopsFixtures(t, 2000) {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 100; i++ {
			a := rng.Intn(g.Len())
			ball := refBFSWithin(g, a, max)
			for j := 0; j < 50; j++ {
				b := rng.Intn(g.Len())
				if j == 0 {
					b = a
				}
				if got, want := g.Hops(a, b, max), refHops(ball, b, max); got != want {
					t.Fatalf("%s: Hops(%d,%d,%d) = %d, want %d", name, a, b, max, got, want)
				}
			}
		}
	}
}

// TestHopsConcurrent hammers one graph from 8 goroutines (run under
// -race): searches share the graph and the scratch pool, never a scratch.
func TestHopsConcurrent(t *testing.T) {
	g, err := BarabasiAlbert(2000, 2, nil, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	const max = 6
	want := make([]map[int]int, 8)
	for i := range want {
		want[i] = refBFSWithin(g, i*37, max)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				b := rng.Intn(g.Len())
				if got, exp := g.Hops(w*37, b, max), refHops(want[w], b, max); got != exp {
					t.Errorf("goroutine %d: Hops(%d,%d) = %d, want %d", w, w*37, b, got, exp)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestHopsEpochWrap drives a scratch across the uint32 epoch wrap: stamps
// left by the searches before the wrap must not read as visited after it.
func TestHopsEpochWrap(t *testing.T) {
	g := NewGraph(6)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, i+1, 1)
	}
	sc := new(bfsScratch)
	g.hops(sc, 0, 5, 6) // sizes the scratch
	sc.epoch = math.MaxUint32 - 2
	for i := 0; i < 6; i++ {
		if got := g.hops(sc, 0, 5, 6); got != 5 {
			t.Fatalf("search %d (epoch %d): Hops(0,5) = %d, want 5", i, sc.epoch, got)
		}
		if got := g.hops(sc, 5, 2, 6); got != 3 {
			t.Fatalf("search %d (epoch %d): Hops(5,2) = %d, want 3", i, sc.epoch, got)
		}
	}
	if sc.epoch == 0 || sc.epoch > 16 {
		t.Errorf("epoch %d after the wrap, want a small non-zero value", sc.epoch)
	}
}

// TestScratchSharedAcrossGraphSizes reuses one scratch on a small graph, a
// larger one (the scratch grows) and the small one again.
func TestScratchSharedAcrossGraphSizes(t *testing.T) {
	small, _ := DisjointStars(1, 4, 1)
	big, _ := DisjointStars(1, 64, 1)
	sc := new(bfsScratch)
	for _, g := range []*Graph{small, big, small} {
		if got := g.hops(sc, 1, g.Len()-1, 6); got != 2 {
			t.Errorf("n=%d: Hops(1,%d) = %d, want 2", g.Len(), g.Len()-1, got)
		}
	}
}

// TestAvgPathLengthSampleMatchesReference pins the scratch-array summation
// to the per-sample distance map it replaced.
func TestAvgPathLengthSampleMatchesReference(t *testing.T) {
	for name, g := range hopsFixtures(t, 160) {
		const samples = 12
		got := g.AvgPathLengthSample(samples, rand.New(rand.NewSource(9)))
		rng := rand.New(rand.NewSource(9))
		var sum, count float64
		for s := 0; s < samples; s++ {
			for _, d := range refBFSWithin(g, rng.Intn(g.Len()), g.Len()) {
				if d > 0 {
					sum += float64(d)
					count++
				}
			}
		}
		if want := sum / count; got != want {
			t.Errorf("%s: AvgPathLengthSample = %v, want %v", name, got, want)
		}
	}
}

var benchSink int

// benchPairs picks client→hub pairs the way Construct asks for them: the
// sources are late (low-degree) nodes, the targets the highest-degree ones.
func benchPairs(g *Graph, hubs, pairs int) (src, dst []int) {
	top := make([]int, g.Len())
	for u := range top {
		top[u] = u
	}
	sort.SliceStable(top, func(i, j int) bool { return g.Degree(top[i]) > g.Degree(top[j]) })
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < pairs; i++ {
		src = append(src, g.Len()/2+rng.Intn(g.Len()/2))
		dst = append(dst, top[rng.Intn(hubs)])
	}
	return src, dst
}

// benchClientToHub runs op over client→hub pairs of 2k- and 100k-node
// Barabási–Albert overlays.
func benchClientToHub(b *testing.B, op func(g *Graph, src, dst int) int) {
	for _, n := range []int{2000, 100000} {
		g, err := BarabasiAlbert(n, 2, nil, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		src, dst := benchPairs(g, 16, 256)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			op(g, src[0], dst[0]) // warm the scratch pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += op(g, src[i%len(src)], dst[i%len(dst)])
			}
		})
	}
}

// BenchmarkHops measures the point-to-point search. It is alloc-gated in
// CI (benchgate BenchmarkHops=0).
func BenchmarkHops(b *testing.B) {
	benchClientToHub(b, func(g *Graph, src, dst int) int { return g.Hops(src, dst, 6) })
}

// BenchmarkBFSWithin is the per-call cost hopsTo paid before Hops: the
// whole radius-6 ball as a map, to read one entry.
func BenchmarkBFSWithin(b *testing.B) {
	benchClientToHub(b, func(g *Graph, src, dst int) int { return g.BFSWithin(src, 6)[dst] })
}
