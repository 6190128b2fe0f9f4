package saintetiq

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"p2psum/internal/cells"
	"p2psum/internal/wire"
)

// Wire format: summaries travel in localsum and reconciliation messages
// (paper §4), so they need a compact, self-contained serialization. There is
// one encoding — what is shipped, what is persisted and what the transports
// charge are the same bytes — and it carries only what the receiver cannot
// recompute from the rest of the tree:
//
//	header     MaxChildren and MaxSplitRounds (varints); per attribute its
//	           name, labels and numeric flag; the node count (uvarint)
//	node       preorder, each:
//	  parent   the parent's preorder index (varint), -1 for the root
//	  leaf     bool
//	  count    float64
//	  leaf     per attribute, the label index (uvarint) and its grade
//	           (float64), then a numeric attribute's Min, Max, Sum and SumSq
//	           (float64s); then the peer extent (uvarint length, varint ids)
//	internal   per attribute, the number of non-zero counts (uvarint) and
//	           each one's label index (uvarint) and count (float64), then a
//	           numeric attribute's Sum and SumSq (float64s)
//
// DecodeWire derives the rest bit for bit, children before their parent:
//   - a leaf's cell is its label index per attribute, and the count of its
//     one descriptor per attribute is the leaf's own count; the leaf index
//     is the leaves sorted by cell, once (a leaf's key, its labels joined by
//     cells.KeySep, is derived from the cell when asked for, and was never
//     on the wire);
//   - an internal node's grades are the column-wise max of its children's,
//     its peer extent is the union of theirs, and a numeric measure's Min
//     and Max are the min and max of theirs;
//   - a numeric measure's Weight is its node's count (the two sum the same
//     contributions in the same order), and a categorical attribute's
//     measure is always empty (cells.NewMeasure).
//
// What stays on the wire is every value whose floating-point sum order
// decides it (counts, Sum and SumSq) and what only a leaf knows (its grades,
// Min, Max and extent). A leaf's count is positive (contributionOf and
// DecodeWire refuse any other), so its descriptor is the column that counts
// it.

// EncodedSize returns the serialized size in bytes (the message-size unit of
// the §6.1.1 storage model), measured with a counting encoder: no buffer is
// built.
func (t *Tree) EncodedSize() int {
	ce := wire.GetCountEnc()
	defer ce.Release()
	t.AppendWire(ce)
	return ce.Len()
}

// AppendWire serializes the hierarchy into the compact wire encoding used
// by the protocol codecs (internal/core registers it with internal/wire).
// Every message transport charges summaries their real encoded length, so
// this runs on the Send hot path. A counting Enc is charged without encoding
// anything: every slot caches the encoded length of its node's body (all but
// the parent index), and sizing sums those lengths plus the parent-index
// varints over a preorder walk, re-measuring only the nodes written since
// they were last sized. A changed node is re-measured without an Enc,
// visiting only the columns its mask marks. On a 2.1 GHz Xeon, in a
// 120-member ring token, that costs about 10 ns per clean node
// (BenchmarkTreeEncodedSize, whose clean and dirty cases are gated at 0
// allocs/op); re-measuring a node in a warm loop costs about 100 ns for a
// leaf and 60 ns for an internal node, which writes neither grades, Min,
// Max nor an extent. A reconciliation token changes on every hop, and a
// float64's encoded length depends on its value, so a hop re-measures most
// of the nodes its merge passed through. The encoding is sparse: an
// internal node writes only its non-zero counts and a leaf one descriptor
// per attribute, so a node costs its intent rather than the full
// vocabulary. The layout is versioned by the surrounding frame, or by the
// leading byte p2psum.EncodeSummary writes (wire.FrameVersion).
func (t *Tree) AppendWire(e *wire.Enc) {
	e.Varint(int64(t.cfg.MaxChildren))
	e.Varint(int64(t.cfg.MaxSplitRounds))
	e.Uvarint(uint64(len(t.attrs)))
	for _, a := range t.attrs {
		e.String(a.name)
		e.Strings(a.labels)
		e.Bool(a.numeric)
	}
	e.Uvarint(uint64(t.NodeCount()))
	if e.Counting() {
		n, _ := t.subtreeLen(root, -1, 0)
		e.Counted(n)
		return
	}
	t.appendNode(e, root, -1, 0)
}

// appendNode writes the subtree rooted at slot n, whose preorder index is
// idx and whose parent's is parent, and returns the next free index.
func (t *Tree) appendNode(e *wire.Enc, n int32, parent, idx int) int {
	nd := &t.nodes[n]
	leaf := nd.leaf
	e.Varint(int64(parent))
	e.Bool(leaf)
	e.Float64(nd.count)
	measures := t.measureRow(n)
	for a, info := range t.attrs {
		m := measures[a]
		if leaf {
			l := t.leafCol(n, a)
			e.Uvarint(uint64(l - t.off[a]))
			e.Float64(t.grades[int(n)*t.stride()+l])
			if info.numeric {
				e.Float64(m.Min)
				e.Float64(m.Max)
			}
		} else {
			counts := t.attrRow(t.counts, n, a)
			nnz := 0
			for _, c := range counts {
				if c != 0 {
					nnz++
				}
			}
			e.Uvarint(uint64(nnz))
			for j, c := range counts {
				if c != 0 {
					e.Uvarint(uint64(j))
					e.Float64(c)
				}
			}
		}
		if info.numeric {
			e.Float64(m.Sum)
			e.Float64(m.SumSq)
		}
	}
	if leaf {
		peers := t.extent(n)
		e.Uvarint(uint64(len(peers)))
		for _, p := range peers {
			e.Varint(int64(p))
		}
	}
	next := idx + 1
	for c := nd.first; c != none; c = t.nodes[c].next {
		next = t.appendNode(e, c, idx, next)
	}
	return next
}

// subtreeLen returns the encoded length of the subtree rooted at slot n, as
// appendNode writes it, and the next free preorder index.
func (t *Tree) subtreeLen(n int32, parent, idx int) (size, next int) {
	size = wire.VarintLen(int64(parent)) + t.bodyLen(n)
	next = idx + 1
	for c := t.nodes[n].first; c != none; c = t.nodes[c].next {
		var s int
		s, next = t.subtreeLen(c, idx, next)
		size += s
	}
	return size, next
}

// Sizing is a read: concurrent readers may size one tree, so the length
// cache is read and filled atomically. Writes to a node clear its entry
// (touch) under the writer's exclusive access.

// touch marks the encoded body of slot i as changed.
func (t *Tree) touch(i int32) { t.sizes[i] = 0 }

// bodyLen returns the encoded length of slot i's body, measuring it if no
// length is cached. A body is never empty, so 0 means unknown.
func (t *Tree) bodyLen(i int32) int {
	if n := atomic.LoadInt32(&t.sizes[i]); n != 0 {
		return int(n)
	}
	n := t.measureBody(i)
	atomic.StoreInt32(&t.sizes[i], int32(n))
	return n
}

// copySizes copies the length cache into dst.
func (t *Tree) copySizes(dst []int32) {
	for i := range dst {
		dst[i] = atomic.LoadInt32(&t.sizes[i])
	}
}

// measureBody computes what appendNode writes for slot i after the parent
// index, without an Enc. A leaf reads its cell's columns; an internal node
// visits only the columns marked in its mask, ascending, and closes an
// attribute's count of non-zero columns when the columns pass its end.
func (t *Tree) measureBody(i int32) int {
	nd := &t.nodes[i]
	leaf := nd.leaf
	n := 1 + wire.Float64Len(nd.count) // the leaf flag and the count
	measures := t.measureRow(i)
	for a, info := range t.attrs {
		if m := measures[a]; info.numeric {
			n += wire.Float64Len(m.Sum) + wire.Float64Len(m.SumSq)
			if leaf {
				n += wire.Float64Len(m.Min) + wire.Float64Len(m.Max)
			}
		}
	}
	if leaf {
		grades := t.row(t.grades, i)
		for a, l := range t.cellRow(i) {
			n += wire.UvarintLen(uint64(int(l)-t.off[a])) + wire.Float64Len(grades[l])
		}
		peers := t.extent(i)
		return n + wire.UvarintLen(uint64(len(peers))) + wire.VarintsLen(peers)
	}
	counts := t.row(t.counts, i)
	a, nnz := 0, 0
	for w, set := range t.maskRow(i) {
		for ; set != 0; set &= set - 1 {
			l := w<<6 | bits.TrailingZeros64(set)
			if counts[l] == 0 {
				continue
			}
			for ; l >= t.off[a+1]; a, nnz = a+1, 0 {
				n += wire.UvarintLen(uint64(nnz))
			}
			nnz++
			n += wire.UvarintLen(uint64(l-t.off[a])) + wire.Float64Len(counts[l])
		}
	}
	for ; a < len(t.attrs); a, nnz = a+1, 0 {
		n += wire.UvarintLen(uint64(nnz))
	}
	return n
}

// DecodeWire reconstructs a hierarchy serialized by AppendWire, derives what
// the encoding leaves out, and validates the structural invariants.
func DecodeWire(d *wire.Dec) (*Tree, error) {
	var cfg Config
	cfg.MaxChildren = int(d.Varint())
	cfg.MaxSplitRounds = int(d.Varint())
	attrCount := d.Uvarint()
	var attrs []attrInfo
	for i := uint64(0); i < attrCount; i++ {
		info := attrInfo{name: d.String(), labels: d.Strings(), numeric: d.Bool()}
		if d.Err() != nil {
			return nil, d.Err()
		}
		info.indexOf = make(map[string]int, len(info.labels))
		for j, lab := range info.labels {
			info.indexOf[lab] = j
		}
		attrs = append(attrs, info)
	}
	nodeCount := d.Uvarint()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nodeCount == 0 {
		return nil, errors.New("saintetiq: decode: empty tree")
	}
	off, rank := layout(attrs)
	t := emptyTree(cfg, attrs, off, rank)
	// A node takes at least 3+attrs bytes, which bounds what the count may
	// reserve.
	slots := int(min(nodeCount, uint64(d.Remaining()/(3+len(attrs)))))
	t.reserveSlots(slots)
	leaves := make([]decodedLeaf, 0, slots)
	lo, hi := PeerID(math.MaxInt), PeerID(math.MinInt) // the leaves' peer ids lie in [lo, hi]
	for i := uint64(0); i < nodeCount; i++ {
		parent := int(d.Varint())
		leaf := d.Bool()
		n := t.alloc()
		t.nodes[n].id, t.nodes[n].leaf = n, leaf
		count := d.Float64()
		t.nodes[n].count = count
		measures := t.measureRow(n)
		for a, info := range t.attrs {
			counts, grades := t.attrRow(t.counts, n, a), t.attrRow(t.grades, n, a)
			m := cells.NewMeasure()
			nnz := uint64(1) // a leaf's descriptor
			if !leaf {
				nnz = d.Uvarint()
			}
			for k := uint64(0); k < nnz; k++ {
				j := d.Uvarint()
				if d.Err() != nil {
					return nil, d.Err()
				}
				if j >= uint64(len(counts)) {
					return nil, fmt.Errorf("saintetiq: decode: node %d attr %d label %d out of vocabulary", i, a, j)
				}
				if leaf {
					counts[j], grades[j] = count, d.Float64()
					t.cellRow(n)[a] = int32(t.off[a] + int(j))
				} else {
					counts[j] = d.Float64()
				}
				t.mark(n, t.off[a]+int(j))
			}
			if info.numeric {
				if leaf {
					m.Min, m.Max = d.Float64(), d.Float64()
				}
				m.Weight, m.Sum, m.SumSq = count, d.Float64(), d.Float64()
			}
			measures[a] = m
		}
		if leaf {
			if !(count > 0) {
				return nil, fmt.Errorf("saintetiq: decode: leaf %d has count %v", i, count)
			}
			peerCount := d.Uvarint()
			leaves = append(leaves, decodedLeaf{n: n, peers: int(min(peerCount, uint64(d.Remaining()))), at: *d})
			for k := uint64(0); k < peerCount; k++ {
				p := PeerID(d.Varint())
				if d.Err() != nil {
					return nil, d.Err()
				}
				lo, hi = min(lo, p), max(hi, p)
			}
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		switch {
		case parent >= int(i):
			return nil, fmt.Errorf("saintetiq: decode: node %d has forward parent %d", i, parent)
		case parent >= 0:
			t.link(int32(parent), n) // Validate refuses a leaf with children
		case i != 0:
			return nil, fmt.Errorf("saintetiq: decode: node %d is a second root", i)
		case leaf:
			return nil, errors.New("saintetiq: decode: the root is a leaf")
		}
	}
	if err := t.indexLeaves(leaves); err != nil {
		return nil, err
	}
	t.decodePeers(leaves, uint64(hi)-uint64(lo)+1)
	t.deriveInternal()
	t.nextID = len(t.nodes)
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// decodedLeaf is a leaf of a tree being decoded whose peer extent is not
// stored yet: DecodeWire reads past its ids and decodePeers reads them
// again from at, once the peers array is sized.
type decodedLeaf struct {
	n     int32
	peers int      // the ids the leaf lists
	at    wire.Dec // positioned at the leaf's first id
}

// decodePeers allocates the peers array of a decoded tree once, with room
// for every extent it will hold, and reads each leaf's extent into it.
// A leaf holds at most the ids it lists, and an internal node at most the
// sum of its children's and at most span, the number of ids in the range
// the leaves' ids lie in (0 standing for 2^64): deriveInternal writes the
// internal unions into the room left, so the array never regrows on the
// way.
func (t *Tree) decodePeers(leaves []decodedLeaf, span uint64) {
	bound := make([]int, len(t.nodes))
	for _, l := range leaves {
		bound[l.n] = l.peers
	}
	total := 0
	for n := int32(len(t.nodes)) - 1; n >= 0; n-- {
		if nd := &t.nodes[n]; !nd.leaf {
			for c := nd.first; c != none; c = t.nodes[c].next {
				bound[n] += bound[c]
			}
			if span != 0 && uint64(bound[n]) > span {
				bound[n] = int(span)
			}
		}
		total += bound[n]
	}
	t.peers = make([]PeerID, 0, total)
	for _, l := range leaves {
		t.reserve(l.n, l.peers)
		nd := &t.nodes[l.n]
		ext := t.peers[nd.peerOff : nd.peerOff+int32(l.peers)]
		for k := range ext {
			ext[k] = PeerID(l.at.Varint())
		}
		slices.Sort(ext)
		nd.peerLen = int32(len(slices.Compact(ext)))
	}
}

// indexLeaves builds the leaf index of a decoded tree: its leaves sorted by
// cell, no two of which may agree, and none of which may have an empty key.
func (t *Tree) indexLeaves(leaves []decodedLeaf) error {
	t.leaves = make([]int32, len(leaves))
	for k, l := range leaves {
		t.leaves[k] = l.n
		if len(t.attrs) < 2 && (Node{t, l.n}).Key() == "" { // only a separator-free key can be empty
			return fmt.Errorf("saintetiq: decode: leaf %d has an empty key", l.n)
		}
	}
	slices.SortFunc(t.leaves, func(x, y int32) int { return t.cmpCells(t.cellRow(x), t.cellRow(y)) })
	for k := 1; k < len(t.leaves); k++ {
		if x, y := t.leaves[k-1], t.leaves[k]; t.cmpCells(t.cellRow(x), t.cellRow(y)) == 0 {
			return fmt.Errorf("saintetiq: decode: leaves %d and %d have one key %q", min(x, y), max(x, y), Node{t, y}.Key())
		}
	}
	return nil
}

// deriveInternal fills in what the encoding leaves out of a decoded tree's
// internal nodes, from the last slot to the first, so that every child (a
// slot after its parent's) is complete before its parent: the grades are
// the column-wise max of the children's, the peer extent is their union, and
// a numeric measure's Min and Max are the min and max of theirs. A node's
// mask gains its children's bits, which cover every grade it takes.
func (t *Tree) deriveInternal() {
	var ext, scratch []PeerID
	for n := int32(len(t.nodes)) - 1; n >= 0; n-- {
		nd := &t.nodes[n]
		if nd.leaf {
			continue
		}
		grades, mask, measures := t.row(t.grades, n), t.maskRow(n), t.measureRow(n)
		ext = ext[:0]
		for c := nd.first; c != none; c = t.nodes[c].next {
			cg := t.row(t.grades, c)
			for w, set := range t.maskRow(c) {
				mask[w] |= set
				for ; set != 0; set &= set - 1 {
					if l := w<<6 | bits.TrailingZeros64(set); cg[l] > grades[l] {
						grades[l] = cg[l]
					}
				}
			}
			for a, cm := range t.measureRow(c) {
				if cm.Min < measures[a].Min {
					measures[a].Min = cm.Min
				}
				if cm.Max > measures[a].Max {
					measures[a].Max = cm.Max
				}
			}
			scratch = unionPeerSets(scratch[:0], ext, t.extent(c))
			ext, scratch = scratch, ext
		}
		t.copyPeers(n, ext)
	}
}

// unionPeerSets appends the union of the ascending sets a and b to dst.
func unionPeerSets(dst, a, b []PeerID) []PeerID {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			dst, a = append(dst, a[0]), a[1:]
		case b[0] < a[0]:
			dst, b = append(dst, b[0]), b[1:]
		default:
			dst, a, b = append(dst, a[0]), a[1:], b[1:]
		}
	}
	dst = append(dst, a...)
	return append(dst, b...)
}

// reserveLeaves makes room in an empty tree for n new leaves at two slots
// each: a placement adds the leaf and, when it demotes a leaf or the arity
// cap merges two children, one internal node. Left to append's growth, the
// arena would copy every array several times over on its way there.
func (t *Tree) reserveLeaves(n int) {
	t.reserveSlots(2 * n)
	t.leaves = slices.Grow(t.leaves, n)
}

// reserveSlots makes room for n slots in every arena array.
func (t *Tree) reserveSlots(n int) {
	t.nodes = slices.Grow(t.nodes, n)
	t.cols = slices.Grow(t.cols, n*len(t.attrs))
	t.counts = slices.Grow(t.counts, n*t.stride())
	t.grades = slices.Grow(t.grades, n*t.stride())
	t.measures = slices.Grow(t.measures, n*len(t.attrs))
	t.masks = slices.Grow(t.masks, n*t.words())
	t.sizes = slices.Grow(t.sizes, n)
}
