package main

import "testing"

// TestParseBenchLine: only the trailing -GOMAXPROCS suffix is cut from a
// benchmark's name, so sub-benchmarks whose names end in -N keep their own
// gates; without the -benchmem column a line is not a result.
func TestParseBenchLine(t *testing.T) {
	for _, tc := range []struct {
		line   string
		procs  int
		name   string
		allocs int64
		ok     bool
	}{
		{"BenchmarkStoreQueryLatency/sharded-2-2   1000   2000 ns/op   3000 B/op   73 allocs/op", 2,
			"BenchmarkStoreQueryLatency/sharded-2", 73, true},
		{"BenchmarkStoreQueryLatency/sharded-8-4   1000   2000 ns/op   3000 B/op   70 allocs/op", 4,
			"BenchmarkStoreQueryLatency/sharded-8", 70, true},
		{"BenchmarkStoreQueryLatency/sharded-2   1000   2000 ns/op   3000 B/op   73 allocs/op", 1,
			"BenchmarkStoreQueryLatency/sharded-2", 73, true},
		{"BenchmarkFrameEncode-8   28143813   44.32 ns/op   0 B/op   0 allocs/op", 8,
			"BenchmarkFrameEncode", 0, true},
		{"BenchmarkReconcileFrameSize/ids=50-2   1000   12 ns/op   0 B/op   0 allocs/op", 2,
			"BenchmarkReconcileFrameSize/ids=50", 0, true},
		{"BenchmarkFrameEncode-8   28143813   44.32 ns/op", 8, "", 0, false},
		{"ok  	p2psum/internal/wire	1.2s", 8, "", 0, false},
	} {
		name, allocs, ok := parseBenchLine(tc.line, tc.procs)
		if name != tc.name || allocs != tc.allocs || ok != tc.ok {
			t.Errorf("parseBenchLine(%q, %d) = %q, %d, %v; want %q, %d, %v",
				tc.line, tc.procs, name, allocs, ok, tc.name, tc.allocs, tc.ok)
		}
	}
}
