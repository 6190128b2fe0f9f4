package saintetiq

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"p2psum/internal/cells"
	"p2psum/internal/wire"
)

// Wire format: summaries travel in localsum and reconciliation messages
// (paper §4), so they need a compact, self-contained serialization. The
// tree is flattened preorder with parent indexes; vocabularies ride along
// so a received summary can be checked against the local CBK. There is one
// encoding — what is shipped, what is persisted and what the transports
// charge are the same bytes.

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
// 120-member ring token, that costs about 10 ns per clean node and 220 ns
// to re-measure a changed leaf, 350 ns a changed internal node
// (BenchmarkTreeEncodedSize, whose clean and dirty cases are gated at 0
// allocs/op). A reconciliation token changes on every hop, and a float64's
// encoded length depends on its value, so a hop re-measures most of the
// nodes its merge passed through. The encoding is sparse: only
// positively-counted descriptors are written, so a leaf costs its intent
// rather than the full vocabulary. The layout is versioned by the
// surrounding frame (wire.FrameVersion).
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
	e.Varint(int64(parent))
	e.String(nd.key)
	e.Float64(nd.count)
	measures := t.measureRow(n)
	for a := range t.attrs {
		counts, grades := t.attrRow(t.counts, n, a), t.attrRow(t.grades, n, a)
		nnz := 0
		for j := range counts {
			if counts[j] != 0 || grades[j] != 0 {
				nnz++
			}
		}
		e.Uvarint(uint64(nnz))
		for j := range counts {
			if counts[j] != 0 || grades[j] != 0 {
				e.Uvarint(uint64(j))
				e.Float64(counts[j])
				e.Float64(grades[j])
			}
		}
		m := measures[a]
		e.Float64(m.Weight)
		e.Float64(m.Min)
		e.Float64(m.Max)
		e.Float64(m.Sum)
		e.Float64(m.SumSq)
	}
	peers := t.extent(n)
	e.Uvarint(uint64(len(peers)))
	for _, p := range peers {
		e.Varint(int64(p))
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
// index, without an Enc. It visits only the columns marked in the slot's
// mask, ascending, and closes an attribute's descriptor count when the
// columns pass its end.
func (t *Tree) measureBody(i int32) int {
	nd := &t.nodes[i]
	n := wire.StringLen(nd.key) + wire.Float64Len(nd.count)
	for _, m := range t.measureRow(i) {
		n += wire.Float64Len(m.Weight) + wire.Float64Len(m.Min) + wire.Float64Len(m.Max) +
			wire.Float64Len(m.Sum) + wire.Float64Len(m.SumSq)
	}
	counts, grades := t.row(t.counts, i), t.row(t.grades, i)
	a, nnz := 0, 0
	for w, set := range t.maskRow(i) {
		for ; set != 0; set &= set - 1 {
			l := w<<6 | bits.TrailingZeros64(set)
			if counts[l] == 0 && grades[l] == 0 {
				continue
			}
			for ; l >= t.off[a+1]; a, nnz = a+1, 0 {
				n += wire.UvarintLen(uint64(nnz))
			}
			nnz++
			n += wire.UvarintLen(uint64(l-t.off[a])) + wire.Float64Len(counts[l]) + wire.Float64Len(grades[l])
		}
	}
	for ; a < len(t.attrs); a, nnz = a+1, 0 {
		n += wire.UvarintLen(uint64(nnz))
	}
	peers := t.extent(i)
	return n + wire.UvarintLen(uint64(len(peers))) + wire.VarintsLen(peers)
}

// DecodeWire reconstructs a hierarchy serialized by AppendWire and
// validates its structural invariants.
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
	t := emptyTree(cfg, attrs, offsets(attrs))
	// A node takes at least 4+6·attrs bytes, and a peer one, which bounds
	// what the counts may reserve.
	t.reserveSlots(int(min(nodeCount, uint64(d.Remaining()/(4+6*len(attrs))))))
	for i := uint64(0); i < nodeCount; i++ {
		parent := int(d.Varint())
		n := t.alloc()
		t.nodes[n].key, t.nodes[n].id = d.String(), int32(n)
		t.nodes[n].count = d.Float64()
		for a := range t.attrs {
			counts, grades := t.attrRow(t.counts, n, a), t.attrRow(t.grades, n, a)
			nnz := d.Uvarint()
			for k := uint64(0); k < nnz; k++ {
				j := d.Uvarint()
				if d.Err() != nil {
					return nil, d.Err()
				}
				if j >= uint64(len(counts)) {
					return nil, fmt.Errorf("saintetiq: decode: node %d attr %d label %d out of vocabulary", i, a, j)
				}
				counts[j] = d.Float64()
				grades[j] = d.Float64()
				t.mark(n, t.off[a]+int(j))
			}
			t.measureRow(n)[a] = cells.Measure{
				Weight: d.Float64(),
				Min:    d.Float64(),
				Max:    d.Float64(),
				Sum:    d.Float64(),
				SumSq:  d.Float64(),
			}
		}
		peerCount := d.Uvarint()
		t.reserve(n, int(min(peerCount, uint64(d.Remaining()))))
		for k := uint64(0); k < peerCount; k++ {
			t.addPeer(n, PeerID(d.Varint()))
			if d.Err() != nil {
				return nil, d.Err()
			}
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		if parent >= 0 {
			if parent >= int(i) {
				return nil, fmt.Errorf("saintetiq: decode: node %d has forward parent %d", i, parent)
			}
			t.link(int32(parent), n)
		} else if i != 0 {
			return nil, fmt.Errorf("saintetiq: decode: node %d is a second root", i)
		}
		if k := t.nodes[n].key; k != "" {
			t.byKey[k] = n
		}
	}
	t.nextID = len(t.nodes)
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// reserveLeaves makes room in an empty tree for n new leaves at two slots
// each: a placement adds the leaf and, when it demotes a leaf or the arity
// cap merges two children, one internal node. Left to append's growth, the
// arena would copy every array several times over on its way there.
func (t *Tree) reserveLeaves(n int) { t.reserveSlots(2 * n) }

// reserveSlots makes room for n slots in every arena array.
func (t *Tree) reserveSlots(n int) {
	t.nodes = slices.Grow(t.nodes, n)
	t.counts = slices.Grow(t.counts, n*t.stride())
	t.grades = slices.Grow(t.grades, n*t.stride())
	t.measures = slices.Grow(t.measures, n*len(t.attrs))
	t.masks = slices.Grow(t.masks, n*t.words())
	t.sizes = slices.Grow(t.sizes, n)
}
