package saintetiq

import (
	"testing"

	"p2psum/internal/bk"
)

// The four benchmarks follow the data-level reconciliation ring: every peer
// summarises a 60-row relation (IncorporateStore), every hop merges a
// member's summary into the token (Merge, which scores operators at each
// node on the way down) and sizes the token for the ledger (EncodedSize).

// BenchmarkTreeEncodedSize sizes a 120-member ring token (~300 nodes: the
// medical grid bounds the leaves) with the counting encoder: what every
// transport pays per summary-carrying Send.
func BenchmarkTreeEncodedSize(b *testing.B) {
	tr := mergedTree(b, DefaultConfig(), 42, 120, 60)
	nodes := tr.NodeCount()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.EncodedSize() == 0 {
			b.Fatal("empty encoding")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodes), "ns/node")
}

// BenchmarkChooseOperator scores one contribution at the widest node of a
// 16-member token (full arity under the default cap): K host candidates,
// create, merge and, when the best host is internal, split.
func BenchmarkChooseOperator(b *testing.B) {
	tr := mergedTree(b, DefaultConfig(), 42, 16, 60)
	at := tr.root
	tr.Walk(func(n *Node) bool {
		if len(n.children) > len(at.children) {
			at = n
		}
		return true
	})
	if len(at.children) != tr.cfg.MaxChildren {
		b.Fatalf("widest node has %d children, want %d", len(at.children), tr.cfg.MaxChildren)
	}
	con, err := tr.contributionOf(medicalStore(b, 7, 1).Cells()[0], nil)
	if err != nil {
		b.Fatal(err)
	}
	at.apply(con)
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
