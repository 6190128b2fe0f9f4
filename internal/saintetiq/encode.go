package saintetiq

import (
	"errors"
	"fmt"

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
// this runs on the Send hot path — a reconciliation token's tree changes on
// every hop, so there are no bytes to keep — as one allocation-free preorder
// recursion (about 180 ns per node against a counting encoder on a 2.6 GHz
// Xeon; BenchmarkTreeEncodedSize is gated at 0 allocs/op). The encoding is
// sparse: only positively-counted descriptors are written, so a leaf costs
// its intent rather than the full vocabulary. The layout is versioned by
// the surrounding frame (wire.FrameVersion).
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
	t.appendNode(e, t.root, -1, 0)
}

// appendNode writes the subtree rooted at n, whose preorder index is idx
// and whose parent's is parent, and returns the next free index.
func (t *Tree) appendNode(e *wire.Enc, n *Node, parent, idx int) int {
	e.Varint(int64(parent))
	e.String(n.key)
	e.Float64(n.count)
	for a := range t.attrs {
		nnz := 0
		for j := range n.counts[a] {
			if n.counts[a][j] != 0 || n.grades[a][j] != 0 {
				nnz++
			}
		}
		e.Uvarint(uint64(nnz))
		for j := range n.counts[a] {
			if n.counts[a][j] != 0 || n.grades[a][j] != 0 {
				e.Uvarint(uint64(j))
				e.Float64(n.counts[a][j])
				e.Float64(n.grades[a][j])
			}
		}
		m := n.measures[a]
		e.Float64(m.Weight)
		e.Float64(m.Min)
		e.Float64(m.Max)
		e.Float64(m.Sum)
		e.Float64(m.SumSq)
	}
	e.Uvarint(uint64(len(n.peers)))
	for _, p := range n.peers {
		e.Varint(int64(p))
	}
	next := idx + 1
	for _, c := range n.children {
		next = t.appendNode(e, c, idx, next)
	}
	return next
}

// DecodeWire reconstructs a hierarchy serialized by AppendWire and
// validates its structural invariants.
func DecodeWire(d *wire.Dec) (*Tree, error) {
	t := &Tree{byKey: make(map[string]*Node)}
	t.cfg.MaxChildren = int(d.Varint())
	t.cfg.MaxSplitRounds = int(d.Varint())
	attrCount := d.Uvarint()
	for i := uint64(0); i < attrCount; i++ {
		info := attrInfo{name: d.String(), labels: d.Strings(), numeric: d.Bool()}
		if d.Err() != nil {
			return nil, d.Err()
		}
		info.indexOf = make(map[string]int, len(info.labels))
		for j, lab := range info.labels {
			info.indexOf[lab] = j
		}
		t.attrs = append(t.attrs, info)
	}
	nodeCount := d.Uvarint()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nodeCount == 0 {
		return nil, errors.New("saintetiq: decode: empty tree")
	}
	var nodes []*Node
	for i := uint64(0); i < nodeCount; i++ {
		parent := int(d.Varint())
		n := t.blankNode(int(i), d.String())
		n.count = d.Float64()
		for a := range t.attrs {
			nnz := d.Uvarint()
			for k := uint64(0); k < nnz; k++ {
				j := d.Uvarint()
				if d.Err() != nil {
					return nil, d.Err()
				}
				if j >= uint64(len(n.counts[a])) {
					return nil, fmt.Errorf("saintetiq: decode: node %d attr %d label %d out of vocabulary", i, a, j)
				}
				n.counts[a][j] = d.Float64()
				n.grades[a][j] = d.Float64()
			}
			n.measures[a] = cells.Measure{
				Weight: d.Float64(),
				Min:    d.Float64(),
				Max:    d.Float64(),
				Sum:    d.Float64(),
				SumSq:  d.Float64(),
			}
		}
		peerCount := d.Uvarint()
		for k := uint64(0); k < peerCount; k++ {
			n.addPeer(PeerID(d.Varint()))
			if d.Err() != nil {
				return nil, d.Err()
			}
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		nodes = append(nodes, n)
		if parent >= 0 {
			if parent >= int(i) {
				return nil, fmt.Errorf("saintetiq: decode: node %d has forward parent %d", i, parent)
			}
			n.parent = nodes[parent]
			n.parent.children = append(n.parent.children, n)
		} else if i != 0 {
			return nil, fmt.Errorf("saintetiq: decode: node %d is a second root", i)
		}
		if n.key != "" {
			t.byKey[n.key] = n
		}
	}
	t.root = nodes[0]
	t.nextID = len(nodes)
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
