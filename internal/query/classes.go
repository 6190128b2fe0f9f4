package query

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"sync"

	"p2psum/internal/cells"
	"p2psum/internal/saintetiq"
)

// §5.2.2 aggregation in label-index space. Each selected summary folds into
// a class accumulator keyed by the canonical label indexes its intent meets
// on the WHERE clauses; a class keeps its weight, one presence bit per
// (SELECT attribute, descriptor), the SELECT measures and the ascending
// union of its summaries' peer extents. One accumulator serves a whole
// query: each shard after the first folds into per-class partials that
// endShard adds to the totals in shard order, so every float sums as a
// per-shard evaluation merged shard by shard would sum it. Nothing is a
// string yet, and the accumulator's scratch is pooled: only the finished
// classes become Class rows — label sets, measures, label strings and
// peer extents carved out of fresh per-answer slabs in the attribute order
// the plan fixes once, ordered by the class key.

// plan is a compiled query resolved for aggregation against one
// vocabulary.
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
	names := slices.Clone(q.Select)
	slices.Sort(names)
	names = slices.Compact(names)
	// Every int row is a capped window of one array.
	ints := make([]int, 2*len(q.Where)+len(q.Select)+2*len(names)+1)
	take := func(n int) []int {
		row := ints[:n:n]
		ints = ints[n:]
		return row
	}
	p := &plan{c: c, vocab: vocab, q: q, keyed: take(len(q.Where))[:0], row: take(len(q.Where)),
		names: names, slotOf: take(len(q.Select)), attrs: take(len(names)), off: take(len(names) + 1)}
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
	for s, name := range p.names {
		p.attrs[s] = vocab.AttrIndex(name)
		p.off[s+1] = p.off[s] + len(vocab.AttrLabels(p.attrs[s]))
	}
	for i, name := range q.Select {
		p.slotOf[i], _ = slices.BinarySearch(p.names, name)
	}
	return p, nil
}

// accumulator folds one query's selected summaries into classes, shard
// after shard. Its scratch — the key index, the class table, the presence,
// measure and key slabs, the peer-union spares — comes from accPool and
// goes back on release; only the Answer that answer builds is fresh
// memory.
type accumulator struct {
	p *plan
	// index maps the hash of a class key to the newest class with that
	// hash; classAcc.next chains the older ones.
	index   map[uint64]int32
	classes []classAcc
	// Class k's presence row is present[k*w:(k+1)*w] (w the plan's row
	// width); its total measures are measures[2*k*m:][:m] and its partial
	// ones the m after them (m the number of SELECT slots).
	present  []bool
	measures []cells.Measure
	keys     []byte             // class keys: class k's is keys[lo:hi]
	sortKeys []byte             // answer: every class's grouping key
	order    []int32            // answer: classes in grouping-key order
	tmp      []saintetiq.PeerID // one summary's peer extent
	spare    []saintetiq.PeerID // the next union's backing array
	// born is the number of classes that existed before the current
	// shard: a summary of an older class folds into its partial.
	born                int
	weight, shardWeight float64
	visited             int
}

// classAcc is one class before it becomes a Class. A class accumulates
// into its totals during the shard that created it and into its partial
// in every later shard, and endShard adds the partial to the totals: each
// float sums in the order a per-shard evaluation merged in shard order
// would add it.
type classAcc struct {
	lo, hi          int   // the class key in keys
	slo, shi        int   // the grouping key in sortKeys
	next            int32 // the previous class whose key hash is equal, -1 for none
	touched         bool  // the partial holds some summary of this shard
	weight, partial float64
	peers           []saintetiq.PeerID // ascending, duplicate-free
}

var (
	accPool = sync.Pool{New: func() any { return &accumulator{index: make(map[uint64]int32)} }}
	keySeed = maphash.MakeSeed()
)

// accumulator takes a cleared accumulator from the pool for p.
func (p *plan) accumulator() *accumulator {
	acc := accPool.Get().(*accumulator)
	acc.p = p
	return acc
}

// release clears acc's scratch and returns it to the pool. New classes
// rely on it: a class's presence row and peers are carved from memory
// release left empty.
func (acc *accumulator) release() {
	clear(acc.index)
	for i := range acc.classes {
		acc.classes[i].peers = acc.classes[i].peers[:0]
	}
	clear(acc.present)
	*acc = accumulator{index: acc.index, classes: acc.classes[:0], present: acc.present[:0],
		measures: acc.measures[:0], keys: acc.keys[:0], sortKeys: acc.sortKeys[:0],
		order: acc.order[:0], tmp: acc.tmp[:0], spare: acc.spare[:0]}
	accPool.Put(acc)
}

// add folds one selected summary into its class.
func (acc *accumulator) add(z saintetiq.Node) {
	p := acc.p
	lo := len(acc.keys)
	key := acc.keys
	for _, i := range p.keyed {
		counts := z.LabelCounts(p.c.attrs[i])
		for _, j := range p.c.labels[i] {
			if counts[j] > 0 {
				key = binary.AppendUvarint(key, uint64(j)+1)
			}
		}
		key = append(key, 0)
	}
	acc.keys = key
	h := maphash.Bytes(keySeed, key[lo:])
	head, ok := acc.index[h]
	if !ok {
		head = -1
	}
	k := head
	for k >= 0 && !bytes.Equal(acc.keys[acc.classes[k].lo:acc.classes[k].hi], key[lo:]) {
		k = acc.classes[k].next
	}
	if k >= 0 {
		acc.keys = acc.keys[:lo] // a known class: drop the key just built
	} else {
		k = acc.newClass(lo, head)
		acc.index[h] = k
	}
	cl := &acc.classes[k]
	m := len(p.names)
	weight, measures := &cl.weight, acc.measures[2*m*int(k):][:m]
	if int(k) < acc.born {
		weight, measures = &cl.partial, acc.measures[2*m*int(k)+m:][:m]
		cl.touched = true
	}
	acc.shardWeight += z.Count()
	*weight += z.Count()
	for _, s := range p.slotOf {
		measures[s].Merge(z.Measure(p.attrs[s]))
	}
	w := p.off[len(p.names)]
	present := acc.present[int(k)*w:][:w]
	for s, a := range p.attrs {
		row := present[p.off[s]:p.off[s+1]]
		for j, cnt := range z.LabelCounts(a) {
			if cnt > 0 {
				row[j] = true
			}
		}
	}
	acc.tmp = z.AppendPeerIDs(acc.tmp[:0])
	acc.unionPeers(cl, acc.tmp)
}

// newClass appends the class keyed by keys[lo:], chained to next, with
// an empty presence row and fresh total and partial measures.
func (acc *accumulator) newClass(lo int, next int32) int32 {
	k := len(acc.classes)
	if k < cap(acc.classes) {
		acc.classes = acc.classes[:k+1]
	} else {
		acc.classes = append(acc.classes, classAcc{})
	}
	cl := &acc.classes[k]
	// The entry keeps its peers array: release emptied it.
	*cl = classAcc{lo: lo, hi: len(acc.keys), next: next, peers: cl.peers}
	w := acc.p.off[len(acc.p.names)]
	n := len(acc.present) + w
	if n > cap(acc.present) {
		acc.present = slices.Grow(acc.present, w)
	}
	acc.present = acc.present[:n]
	for range 2 * len(acc.p.names) {
		acc.measures = append(acc.measures, cells.NewMeasure())
	}
	return int32(k)
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

// endShard closes the current shard: the query weight and every older
// class's partial fold into the totals, and the partials start over.
func (acc *accumulator) endShard() {
	acc.weight += acc.shardWeight
	acc.shardWeight = 0
	m := len(acc.p.names)
	for k := range acc.classes[:acc.born] {
		cl := &acc.classes[k]
		if !cl.touched {
			continue
		}
		cl.weight += cl.partial
		cl.partial, cl.touched = 0, false
		total, partial := acc.measures[2*m*k:][:m], acc.measures[2*m*k+m:][:m]
		for _, s := range acc.p.slotOf {
			total[s].Merge(partial[s])
		}
		for s := range partial {
			partial[s] = cells.NewMeasure()
		}
	}
	acc.born = len(acc.classes)
}

// answer builds the Answer, classes ordered by their grouping key, and PQ: the
// union of the class peer extents, merged from those ascending extents
// into the second half of the peers slab. Every class row is a capped
// window of one per-answer slab of its kind — label sets, measures,
// labels, peers — so a caller's append copies instead of overwriting a
// neighbour. Nothing it returns aliases acc's scratch.
func (acc *accumulator) answer() (*Answer, []saintetiq.PeerID) {
	p := acc.p
	n, w, m := len(acc.classes), p.off[len(p.names)], len(p.names)
	nLabels, nPeers := 0, 0
	sortKeys, order := acc.sortKeys[:0], acc.order[:0]
	for k := range acc.classes {
		cl := &acc.classes[k]
		nPeers += len(cl.peers)
		nLabels += cl.hi - cl.lo // at least one byte per WHERE label
		for _, in := range acc.present[k*w:][:w] {
			if in {
				nLabels++
			}
		}
		cl.slo = len(sortKeys)
		sortKeys = p.appendClassKey(sortKeys, acc.keys[cl.lo:cl.hi])
		cl.shi = len(sortKeys)
		order = append(order, int32(k))
	}
	acc.sortKeys, acc.order = sortKeys, order
	slices.SortFunc(order, func(a, b int32) int {
		ca, cb := &acc.classes[a], &acc.classes[b]
		return bytes.Compare(sortKeys[ca.slo:ca.shi], sortKeys[cb.slo:cb.shi])
	})
	sets := make([]LabelSet, 0, n*(len(p.keyed)+len(p.names)))
	measures := make([]AttrMeasure, 0, n*m)
	labels := make([]string, 0, nLabels)
	peers := make([]saintetiq.PeerID, 0, 2*nPeers) // class extents, then their union
	ans := &Answer{Query: p.q}
	if n > 0 {
		ans.Classes = make([]Class, n)
	}
	for i, k := range order {
		cl := &acc.classes[k]
		c := &ans.Classes[i]
		c.Weight = cl.weight
		key, lo, at := acc.keys[cl.lo:cl.hi], len(sets), 0
		for _, wc := range p.keyed {
			start := len(labels)
			for key[at] != 0 {
				var j uint64
				j, at = uvarintAt(key, at)
				labels = append(labels, p.vocab.Label(p.c.attrs[wc], int(j-1)))
			}
			at++
			sets = append(sets, LabelSet{Attr: p.q.Where[wc].Attr, Labels: capped(labels, start)})
		}
		c.Interpretation = sets[lo:len(sets):len(sets)]
		lo, mlo := len(sets), len(measures)
		present, total := acc.present[int(k)*w:][:w], acc.measures[2*m*int(k):][:m]
		for s, name := range p.names {
			start := len(labels)
			for j, in := range present[p.off[s]:p.off[s+1]] {
				if in {
					labels = append(labels, p.vocab.Label(p.attrs[s], j))
				}
			}
			sets = append(sets, LabelSet{Attr: name, Labels: capped(labels, start)})
			measures = append(measures, AttrMeasure{Attr: name, Measure: total[s]})
		}
		c.Answers = sets[lo:len(sets):len(sets)]
		c.Measures = measures[mlo:len(measures):len(measures)]
		start := len(peers)
		peers = append(peers, cl.peers...)
		c.Peers = peers[start:len(peers):len(peers)]
	}
	union, u := peers[len(peers):cap(peers)], 0
	for k := range acc.classes {
		u = mergeInto(union, u, acc.classes[k].peers)
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

// appendClassKey appends the canonical grouping key of the class keyed
// by key — attr=label|label;attr=... in WHERE order — by which classes are
// ordered. A clause reads the key row of its attribute: the labels after
// the row's predecessors' zero terminators.
func (p *plan) appendClassKey(dst, key []byte) []byte {
	for i, cl := range p.q.Where {
		if i > 0 {
			dst = append(dst, ';')
		}
		dst = append(dst, cl.Attr...)
		dst = append(dst, '=')
		at := 0
		for r := p.row[i]; r > 0; at++ {
			if key[at] == 0 {
				r--
			}
		}
		a := p.c.attrs[p.keyed[p.row[i]]]
		for first := true; key[at] != 0; first = false {
			if !first {
				dst = append(dst, '|')
			}
			var j uint64
			j, at = uvarintAt(key, at)
			dst = append(dst, p.vocab.Label(a, int(j-1))...)
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
func uvarintAt(s []byte, i int) (uint64, int) {
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
