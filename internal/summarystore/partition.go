package summarystore

import (
	"hash/fnv"

	"p2psum/internal/bk"
	"p2psum/internal/saintetiq"
)

// partition decides which shard of n a leaf belongs to. It must be
// deterministic in the leaf's content (never in insertion order or memory
// layout) so that the same data always lands in the same shard on every
// peer and every run.
type partition func(t *saintetiq.Tree, leaf saintetiq.Node, n int) int

// byDescriptor builds the BK attribute-range split on the given attribute:
// shard = the leaf's top-level descriptor index on that attribute, mod n.
// All cells sharing a descriptor stay together, which is what enables
// shard pruning — a query clause on the attribute restricts the fan-out to
// the clause labels' shards. The effective shard count is capped at the
// attribute's vocabulary size, and the split inherits the data's skew on
// that attribute; New also wires the pruning hook.
func byDescriptor(attr int) partition {
	return func(_ *saintetiq.Tree, leaf saintetiq.Node, n int) int {
		idx := leaf.LabelIndexes(attr)
		if len(idx) == 0 {
			return 0
		}
		return idx[0] % n
	}
}

// byKeyHash partitions leaves by an FNV-1a hash of their cell key — the
// subtree-hash split: balanced regardless of data skew and effective at any
// shard count, but without a pruning hook (every query touches every
// shard).
func byKeyHash(_ *saintetiq.Tree, leaf saintetiq.Node, n int) int {
	h := fnv.New32a()
	h.Write(leaf.AppendKey(nil))
	return int(h.Sum32() % uint32(n))
}

// widestAttr returns the index of the attribute with the largest
// vocabulary (ties break on the lower index) — the partition attribute
// that keeps the most shards effective and prunes the most selective
// clauses.
func widestAttr(b *bk.BK) int {
	best, bestLen := 0, -1
	for i, a := range b.Attrs() {
		if l := len(a.Labels()); l > bestLen {
			best, bestLen = i, l
		}
	}
	return best
}
