package query

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"p2psum/internal/cells"
	"p2psum/internal/saintetiq"
)

// §5.2.2 aggregation in label-index space. Each selected summary folds into
// a class accumulator keyed by the canonical label indexes its intent meets
// on the WHERE clauses; a class keeps its weight, one presence bit per
// (SELECT attribute, descriptor), the SELECT measures and the ascending
// union of its summaries' peer extents. Nothing is a string yet: per-shard
// accumulators merge in shard order, and only the merged classes become
// Class rows — label sets, measures, label strings and peer extents carved
// out of per-answer slabs in the attribute order the plan fixes once, plus
// the class key that orders the classes.

// plan is a compiled query resolved for aggregation against one
// vocabulary, shared read-only by every shard's accumulator.
type plan struct {
	c     *compiled
	vocab *saintetiq.Tree
	q     Query
	// keyed lists the clauses a class is keyed on: the last clause on each
	// attribute, in ascending attribute order — the Interpretation rows.
	keyed []int
	// row maps each WHERE clause to its attribute's Interpretation row.
	row []int
	// A repeated SELECT name shares one slot: one answer and one measure,
	// merged once per occurrence. Slots are in ascending name order — the
	// Answers and Measures rows.
	names  []string // slot -> SELECT name
	attrs  []int    // slot -> tree attribute
	slotOf []int    // SELECT entry -> slot
	off    []int    // slot -> first presence bit; off[len(names)] is the row width
}

// newPlan resolves q's SELECT attributes on vocab and the class row layout.
func newPlan(vocab *saintetiq.Tree, q Query, c *compiled) (*plan, error) {
	for _, name := range q.Select {
		if vocab.AttrIndex(name) < 0 {
			return nil, fmt.Errorf("query: select attribute %q not summarized", name)
		}
	}
	p := &plan{c: c, vocab: vocab, q: q, keyed: make([]int, 0, len(q.Where)), row: make([]int, len(q.Where)),
		names: slices.Compact(slices.Sorted(slices.Values(q.Select))), slotOf: make([]int, len(q.Select))}
	for i, cl := range q.Where {
		last := true
		for _, later := range q.Where[i+1:] {
			last = last && later.Attr != cl.Attr
		}
		if last {
			p.keyed = append(p.keyed, i)
		}
	}
	slices.SortFunc(p.keyed, func(i, j int) int { return strings.Compare(q.Where[i].Attr, q.Where[j].Attr) })
	for i, cl := range q.Where {
		p.row[i] = slices.IndexFunc(p.keyed, func(k int) bool { return q.Where[k].Attr == cl.Attr })
	}
	p.attrs, p.off = make([]int, len(p.names)), make([]int, len(p.names)+1)
	for s, name := range p.names {
		p.attrs[s] = vocab.AttrIndex(name)
		p.off[s+1] = p.off[s] + len(vocab.AttrLabels(p.attrs[s]))
	}
	for i, name := range q.Select {
		p.slotOf[i], _ = slices.BinarySearch(p.names, name)
	}
	return p, nil
}

// accumulator folds one shard's selected summaries into classes.
type accumulator struct {
	p       *plan
	index   map[string]int // class key -> position in classes
	classes []classAcc
	key     []byte             // reused key buffer
	tmp     []saintetiq.PeerID // reused: one summary's peer extent
	spare   []saintetiq.PeerID // reused: the next union's backing array
	weight  float64
	visited int
}

// classAcc is one class before it becomes a Class.
type classAcc struct {
	key      string
	weight   float64
	present  []bool // per slot, per descriptor: some summary's intent has it
	measures []cells.Measure
	peers    []saintetiq.PeerID // ascending, duplicate-free
}

func (p *plan) accumulator() *accumulator {
	return &accumulator{p: p, index: make(map[string]int)}
}

// add folds one selected summary into its class.
func (acc *accumulator) add(z saintetiq.Node) {
	p := acc.p
	key := acc.key[:0]
	for _, i := range p.keyed {
		counts := z.LabelCounts(p.c.attrs[i])
		for _, j := range p.c.labels[i] {
			if counts[j] > 0 {
				key = binary.AppendUvarint(key, uint64(j)+1)
			}
		}
		key = append(key, 0)
	}
	acc.key = key
	k, ok := acc.index[string(key)]
	if !ok {
		k = len(acc.classes)
		cl := classAcc{
			key:      string(key),
			present:  make([]bool, p.off[len(p.names)]),
			measures: make([]cells.Measure, len(p.names)),
		}
		for s := range cl.measures {
			cl.measures[s] = cells.NewMeasure()
		}
		acc.classes = append(acc.classes, cl)
		acc.index[cl.key] = k
	}
	cl := &acc.classes[k]
	acc.weight += z.Count()
	cl.weight += z.Count()
	for _, s := range p.slotOf {
		cl.measures[s].Merge(z.Measure(p.attrs[s]))
	}
	for s, a := range p.attrs {
		row := cl.present[p.off[s]:p.off[s+1]]
		for j, cnt := range z.LabelCounts(a) {
			if cnt > 0 {
				row[j] = true
			}
		}
	}
	acc.tmp = z.AppendPeerIDs(acc.tmp[:0])
	acc.unionPeers(cl, acc.tmp)
}

// unionPeers sets cl's peers to their union with the ascending extent more,
// building it in the spare array and keeping the old one as the next spare.
func (acc *accumulator) unionPeers(cl *classAcc, more []saintetiq.PeerID) {
	dst, a, b := acc.spare[:0], cl.peers, more
	if n := len(a) + len(b); cap(dst) < n {
		dst = make([]saintetiq.PeerID, 0, n)
	}
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
	dst = append(append(dst, a...), b...)
	cl.peers, acc.spare = dst, cl.peers
}

// merge folds src's classes and totals into acc. Merging shards in shard
// order keeps every float sum in the order a sequential evaluation adds it.
func (acc *accumulator) merge(src *accumulator) {
	acc.weight += src.weight
	acc.visited += src.visited
	for _, sc := range src.classes {
		k, ok := acc.index[sc.key]
		if !ok {
			acc.index[sc.key] = len(acc.classes)
			acc.classes = append(acc.classes, sc)
			continue
		}
		dc := &acc.classes[k]
		dc.weight += sc.weight
		for _, s := range acc.p.slotOf {
			dc.measures[s].Merge(sc.measures[s])
		}
		for j, in := range sc.present {
			if in {
				dc.present[j] = true
			}
		}
		acc.unionPeers(dc, sc.peers)
	}
}

// answer builds the Answer, classes ordered by their classKey, and PQ: the
// union of the class peer extents, merged from those ascending extents
// into the second half of the peers slab. Every class row is a capped
// window of one per-answer slab of its kind — label sets, measures,
// labels, peers — so a caller's append copies instead of overwriting a
// neighbour.
func (acc *accumulator) answer() (*Answer, []saintetiq.PeerID) {
	p := acc.p
	n := len(acc.classes)
	nLabels, nPeers := 0, 0
	for i := range acc.classes {
		cl := &acc.classes[i]
		nPeers += len(cl.peers)
		nLabels += len(cl.key) // at least one byte per WHERE label
		for _, in := range cl.present {
			if in {
				nLabels++
			}
		}
	}
	sets := make([]LabelSet, 0, n*(len(p.keyed)+len(p.names)))
	measures := make([]AttrMeasure, 0, n*len(p.names))
	labels := make([]string, 0, nLabels)
	peers := make([]saintetiq.PeerID, 0, 2*nPeers) // class extents, then their union
	type keyedClass struct {
		lo, hi int // the class key in keys
		c      Class
	}
	out := make([]keyedClass, n)
	keys := acc.key[:0]
	for i := range acc.classes {
		cl := &acc.classes[i]
		c := Class{Weight: cl.weight}
		lo, k := len(sets), 0
		for _, w := range p.keyed {
			start := len(labels)
			for {
				var j uint64
				j, k = uvarintAt(cl.key, k)
				if j == 0 {
					break
				}
				labels = append(labels, p.vocab.Label(p.c.attrs[w], int(j-1)))
			}
			sets = append(sets, LabelSet{Attr: p.q.Where[w].Attr, Labels: capped(labels, start)})
		}
		c.Interpretation = sets[lo:len(sets):len(sets)]
		lo, mlo := len(sets), len(measures)
		for s, name := range p.names {
			start := len(labels)
			for j, in := range cl.present[p.off[s]:p.off[s+1]] {
				if in {
					labels = append(labels, p.vocab.Label(p.attrs[s], j))
				}
			}
			sets = append(sets, LabelSet{Attr: name, Labels: capped(labels, start)})
			measures = append(measures, AttrMeasure{Attr: name, Measure: cl.measures[s]})
		}
		c.Answers = sets[lo:len(sets):len(sets)]
		c.Measures = measures[mlo:len(measures):len(measures)]
		start := len(peers)
		peers = append(peers, cl.peers...)
		c.Peers = peers[start:len(peers):len(peers)]
		klo := len(keys)
		keys = p.appendClassKey(keys, c.Interpretation)
		out[i] = keyedClass{klo, len(keys), c}
	}
	acc.key = keys
	slices.SortFunc(out, func(a, b keyedClass) int { return bytes.Compare(keys[a.lo:a.hi], keys[b.lo:b.hi]) })
	ans := &Answer{Query: p.q}
	if n > 0 {
		ans.Classes = make([]Class, n)
		for i := range out {
			ans.Classes[i] = out[i].c
		}
	}
	union, u := peers[len(peers):cap(peers)], 0
	for i := range acc.classes {
		u = mergeInto(union, u, acc.classes[i].peers)
	}
	return ans, union[:u:u]
}

// mergeInto merges the ascending, duplicate-free ext into the ascending,
// duplicate-free buf[:n] in place and returns the union's length; buf must
// have room for n+len(ext). The merge runs back to front, so it never
// overwrites an element of buf[:n] it has yet to read, and then closes the
// gap the common elements left.
func mergeInto(buf []saintetiq.PeerID, n int, ext []saintetiq.PeerID) int {
	i, j, w := n-1, len(ext)-1, n+len(ext)
	for j >= 0 {
		w--
		switch {
		case i >= 0 && buf[i] > ext[j]:
			buf[w], i = buf[i], i-1
		case i >= 0 && buf[i] == ext[j]:
			buf[w], i, j = ext[j], i-1, j-1
		default:
			buf[w], j = ext[j], j-1
		}
	}
	end := n + len(ext)
	if w > i+1 {
		copy(buf[i+1:], buf[w:end])
	}
	return i + 1 + end - w
}

// appendClassKey appends the canonical grouping key of an interpretation —
// attr=label|label;attr=... in WHERE order — by which classes are ordered.
func (p *plan) appendClassKey(dst []byte, interp LabelSets) []byte {
	for i, cl := range p.q.Where {
		if i > 0 {
			dst = append(dst, ';')
		}
		dst = append(dst, cl.Attr...)
		dst = append(dst, '=')
		for k, lab := range interp[p.row[i]].Labels {
			if k > 0 {
				dst = append(dst, '|')
			}
			dst = append(dst, lab...)
		}
	}
	return dst
}

// capped returns labels[start:] capped at its length, nil when empty.
func capped(labels []string, start int) []string {
	if len(labels) == start {
		return nil
	}
	return labels[start:len(labels):len(labels)]
}

// uvarintAt decodes the uvarint at s[i:] and returns it with the index
// after it.
func uvarintAt(s string, i int) (uint64, int) {
	var x uint64
	for shift := 0; ; shift += 7 {
		b := s[i]
		i++
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return x, i
		}
	}
}

// sortedPeers sorts and deduplicates buf in place and returns the result
// capped at its length.
func sortedPeers(buf []saintetiq.PeerID) []saintetiq.PeerID {
	slices.Sort(buf)
	buf = slices.Compact(buf)
	return buf[:len(buf):len(buf)]
}
