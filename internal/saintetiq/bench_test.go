package saintetiq

import (
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/wire"
)

// The benchmarks follow the data-level reconciliation ring: every peer
// summarises a 60-row relation (IncorporateStore), every hop merges a
// member's summary into the token (Merge, which scores operators at each
// node on the way down), sizes the token for the ledger (EncodedSize), and a
// summary peer clones what it keeps (Clone).

// BenchmarkTreeEncodedSize sizes a 120-member ring token (~300 nodes: the
// medical grid bounds the leaves) with the counting encoder: what every
// transport pays per summary-carrying Send. The clean case sizes an
// unchanged tree, so every body length is cached; the dirty case first
// applies one contribution along a leaf's path, as a hop's merge does, so
// the nodes on that path are re-measured.
func BenchmarkTreeEncodedSize(b *testing.B) {
	tr := mergedTree(b, DefaultConfig(), 42, 120, 60)
	nodes := tr.NodeCount()
	b.Run("clean", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tr.EncodedSize() == 0 {
				b.Fatal("empty encoding")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodes), "ns/node")
	})
	b.Run("dirty", func(b *testing.B) {
		leaves := tr.Leaves()
		con := tr.newContribution() // one tuple of weight 1, no grade or measure news
		con.count, con.grades, con.measures = 1, make([]float64, len(tr.attrs)), make([]cells.Measure, len(tr.attrs))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			leaf := leaves[i%len(leaves)].i
			for a := range con.cols {
				con.cols[a] = tr.leafCol(leaf, a)
			}
			tr.incorporate(tr.nodes[leaf].key, con)
			if tr.EncodedSize() == 0 {
				b.Fatal("empty encoding")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodes), "ns/node")
	})
}

// BenchmarkTreeDecodeWire decodes the 120-member ring token that
// BenchmarkTreeEncodedSize sizes, from its wire bytes: what a TCP receiver
// pays for every summary-carrying frame.
func BenchmarkTreeDecodeWire(b *testing.B) {
	tr := mergedTree(b, DefaultConfig(), 42, 120, 60)
	buf := encodeTree(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		back, err := DecodeWire(wire.NewDec(buf))
		if err != nil || back.NodeCount() != tr.NodeCount() {
			b.Fatal("decode:", err)
		}
	}
	b.ReportMetric(float64(len(buf)), "bytes")
}

// BenchmarkTreeClone copies a 120-member ring token: one copy per arena
// array plus the leaf index.
func BenchmarkTreeClone(b *testing.B) {
	tr := mergedTree(b, DefaultConfig(), 42, 120, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.Clone().NodeCount() != tr.NodeCount() {
			b.Fatal("clone lost nodes")
		}
	}
}

// BenchmarkChooseOperator scores one contribution at the widest node of a
// 16-member token (full arity under the default cap): K host candidates,
// create, merge and, when the best host is internal, split.
func BenchmarkChooseOperator(b *testing.B) {
	tr := mergedTree(b, DefaultConfig(), 42, 16, 60)
	at := root
	tr.Walk(func(n Node) bool {
		if n.rec().kids > tr.nodes[at].kids {
			at = n.i
		}
		return true
	})
	if kids := int(tr.nodes[at].kids); kids != tr.cfg.MaxChildren {
		b.Fatalf("widest node has %d children, want %d", kids, tr.cfg.MaxChildren)
	}
	con := tr.newContribution()
	if err := tr.contributionOf(medicalStore(b, 7, 1).Cells()[0], nil, con); err != nil {
		b.Fatal(err)
	}
	tr.apply(at, con)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkOp, _, _ = tr.chooseOperator(at, con, 0)
	}
}

var sinkOp operator // keeps the scored call from being optimised away

// BenchmarkTreeMerge merges 16 local summaries into a fresh hierarchy.
func BenchmarkTreeMerge(b *testing.B) {
	locals := make([]*Tree, 16)
	leaves := 0
	for i := range locals {
		locals[i] = localTree(b, DefaultConfig(), 42+int64(i), 60, PeerID(i))
		leaves += locals[i].LeafCount()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New(bk.Medical(), DefaultConfig())
		for _, l := range locals {
			if err := tr.Merge(l); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(leaves), "ns/leaf")
}

// BenchmarkIncorporateStore summarises one peer's 60-row medical relation.
func BenchmarkIncorporateStore(b *testing.B) {
	store := medicalStore(b, 42, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := New(bk.Medical(), DefaultConfig()).IncorporateStore(store, 3); err != nil {
			b.Fatal(err)
		}
	}
}
