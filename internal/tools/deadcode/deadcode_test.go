package main

import "testing"

// TestNormalize pins the mapping from linker symbols onto declaration keys
// on every symbol form the module's binaries contain.
func TestNormalize(t *testing.T) {
	const cmd = "p2psum/cmd/p2psim"
	for _, c := range []struct {
		sym, mainPkg, want string
	}{
		// Plain functions, in the root package and below it.
		{"p2psum.NewSimulation", "", "p2psum.NewSimulation"},
		{"p2psum/internal/topology.BarabasiAlbert", "", "p2psum/internal/topology.BarabasiAlbert"},
		// Value receivers, and pointer receivers as (*T).M.
		{"p2psum/internal/bk.Descriptor.String", "", "p2psum/internal/bk.Descriptor.String"},
		{"p2psum/internal/topology.(*Graph).Hops", "", "p2psum/internal/topology.Graph.Hops"},
		// Generic instantiations, including shape types that carry spaces,
		// dots and import paths.
		{"p2psum/internal/wire.VarintsLen[go.shape.int]", "", "p2psum/internal/wire.VarintsLen"},
		{"p2psum/internal/query.marshalObject[go.shape.struct { Attr string; Measure p2psum/internal/cells.Measure }]", "",
			"p2psum/internal/query.marshalObject"},
		{"p2psum/internal/x.Map[go.shape.[]int,go.shape.map[string]int]", "", "p2psum/internal/x.Map"},
		// Methods on generic types, pointer and value receivers.
		{"p2psum/internal/x.(*Set[go.shape.int]).Add", "", "p2psum/internal/x.Set.Add"},
		{"p2psum/internal/x.Set[go.shape.string].Len", "", "p2psum/internal/x.Set.Len"},
		// Closures, go/defer wrappers and method values are not
		// declarations: they collapse onto the function they live in.
		{"p2psum/internal/core.(*System).Construct.func1", "", "p2psum/internal/core.System.Construct"},
		{"p2psum/internal/core.run.func2.1", "", "p2psum/internal/core.run"},
		{"p2psum/internal/p2p.(*TCPTransport).dial.gowrap1", "", "p2psum/internal/p2p.TCPTransport.dial"},
		{"p2psum/internal/p2p.serve.deferwrap2", "", "p2psum/internal/p2p.serve"},
		{"p2psum/internal/p2p.(*Network).Send-fm", "", "p2psum/internal/p2p.Network.Send"},
		// A main package's symbols are named main.*.
		{"main.main", cmd, cmd + ".main"},
		{"main.(*runner).run.func3", cmd, cmd + ".runner.run"},
	} {
		got, ok := normalize(c.sym, "p2psum", c.mainPkg)
		if !ok || got != c.want {
			t.Errorf("normalize(%q) = %q, %v; want %q", c.sym, got, ok, c.want)
		}
	}
	// Symbols of other modules, of main when no main package is named,
	// and compiler-generated type functions are no declaration of ours.
	for _, sym := range []string{
		"runtime.gopark",
		"p2psumx.F",
		"main.main",
		"type:.eq.p2psum/internal/topology.Graph",
		"p2psum",
	} {
		if got, ok := normalize(sym, "p2psum", ""); ok {
			t.Errorf("normalize(%q) = %q, want no declaration", sym, got)
		}
	}
}
