package gateway

import (
	"sync"
	"sync/atomic"
	"time"

	"p2psum/internal/p2p"
	"p2psum/internal/query"
	"p2psum/internal/routing"
	"p2psum/internal/summarystore"
	"p2psum/internal/wire"
)

// entry is one cached query result plus its freshness basis. The result
// never changes once published to the cache — a refresh inserts a new
// entry — only its form does: answer graph, wire body, or both.
type entry struct {
	domain p2p.NodeID
	// q is the exact query (collision guard: lookups verify SameQuery).
	q query.Query
	// ans is the answer graph. Building the wire body drops it — the
	// socket frontend replays bytes and never reads the graph again — and
	// an in-process hit after that decodes it back from the body once.
	ans atomic.Pointer[routing.DataAnswer]
	// st/shards/gens are the generation basis: the entry is fresh while
	// st.Generation(shards[i]) == gens[i] for all i. st == nil means the
	// domain's store is not readable here; deadline alone governs then.
	st     summarystore.Store
	shards []int
	gens   []uint64
	// deadline is the α-TTL fallback bound (always set; for
	// generation-validated entries it only matters if the store reference
	// goes quiet, e.g. the summary peer moved away).
	deadline time.Time
	// enc is the lazily built wire body (error + DataAnswer) the socket
	// frontend replays on hits; built at most once, exactly sized.
	once sync.Once
	enc  []byte
}

// fresh reports whether the entry may still be served at now.
func (e *entry) fresh(now time.Time) bool {
	if e.st != nil {
		for i, s := range e.shards {
			if e.st.Generation(s) != e.gens[i] {
				return false
			}
		}
		return true
	}
	return now.Before(e.deadline)
}

// encoded returns the entry's wire body — "" error, then the DataAnswer —
// building it on first use. The body is retained for the entry's lifetime
// in its own exact-size slice, and the answer graph it was built from is
// dropped: a cache of wire-served entries holds bytes, not object graphs.
func (e *entry) encoded() []byte {
	e.once.Do(func() {
		enc := wire.GetEnc()
		enc.String("")
		routing.EncodeDataAnswer(enc, e.ans.Load())
		e.enc = append(make([]byte, 0, enc.Len()), enc.Bytes()...)
		enc.Release()
		e.ans.Store(nil)
	})
	return e.enc
}

// answer returns the entry's answer graph. Once the wire body replaced it,
// the first in-process caller decodes the body and keeps the result, so
// later in-process hits allocate nothing.
func (e *entry) answer() (*routing.DataAnswer, error) {
	if a := e.ans.Load(); a != nil {
		return a, nil
	}
	// ans is nil only after encoded's once ran, so this returns at once.
	d := wire.NewDecShared(e.encoded())
	_ = d.String() // the "" error field
	a, err := routing.DecodeDataAnswer(d)
	if err != nil {
		return nil, err
	}
	if !e.ans.CompareAndSwap(nil, a) {
		a = e.ans.Load()
	}
	return a, nil
}

// cacheShards is the lock-striping factor of the result cache: lookups
// take one shard's RLock, so concurrent clients on different fingerprints
// rarely contend.
const cacheShards = 16

// cache is the generation-keyed result cache: fingerprint -> entry,
// striped 16 ways. Capacity is enforced per stripe.
type cache struct {
	capPerShard int
	shards      [cacheShards]cacheShard
}

type cacheShard struct {
	mu sync.RWMutex
	m  map[uint64]*entry
}

func (c *cache) init(capacity int) {
	c.capPerShard = (capacity + cacheShards - 1) / cacheShards
	if c.capPerShard < 1 {
		c.capPerShard = 1
	}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]*entry)
	}
}

// get returns the fresh entry for (h, domain, q), if any. Stale entries
// are dropped on the way (counted as invalidated or expired) so the
// follow-up miss repopulates the slot. The hit path allocates nothing.
func (c *cache) get(h uint64, domain p2p.NodeID, q query.Query, now time.Time, ctr *counters) (*entry, bool) {
	cs := &c.shards[h%cacheShards]
	cs.mu.RLock()
	e := cs.m[h]
	if e == nil || e.domain != domain || !routing.SameQuery(e.q, q) {
		cs.mu.RUnlock()
		return nil, false // miss, or a fingerprint collision: treat as miss
	}
	if e.fresh(now) {
		cs.mu.RUnlock()
		return e, true
	}
	cs.mu.RUnlock()
	// Stale: drop it (if still the resident entry) and report a miss.
	if e.st != nil {
		ctr.invalidated.Add(1)
	} else {
		ctr.expired.Add(1)
	}
	cs.mu.Lock()
	if cs.m[h] == e {
		delete(cs.m, h)
	}
	cs.mu.Unlock()
	return nil, false
}

// put publishes e under h, evicting an arbitrary entry of the stripe when
// it is full (random-replacement keeps the path O(1) and lock-short; the
// duplicate-heavy serving workload keys on a small hot set anyway).
func (c *cache) put(h uint64, e *entry, ctr *counters) {
	cs := &c.shards[h%cacheShards]
	cs.mu.Lock()
	if _, exists := cs.m[h]; !exists && len(cs.m) >= c.capPerShard {
		for k := range cs.m {
			delete(cs.m, k)
			ctr.evicted.Add(1)
			break
		}
	}
	cs.m[h] = e
	cs.mu.Unlock()
}

// scrub drops every entry of the domain whose generation basis no longer
// holds — the proactive sweep OnInstall runs after a reconciliation
// swapped shard deltas. Entries over untouched shards survive: no global
// flush. Returns the number of entries dropped.
func (c *cache) scrub(domain p2p.NodeID, st summarystore.Store) int {
	dropped := 0
	now := time.Now()
	for i := range c.shards {
		cs := &c.shards[i]
		cs.mu.Lock()
		for k, e := range cs.m {
			if e.domain != domain || e.st == nil {
				continue
			}
			if !e.fresh(now) {
				delete(cs.m, k)
				dropped++
			}
		}
		cs.mu.Unlock()
	}
	return dropped
}

// len returns the resident entry count (tests and stats).
func (c *cache) len() int {
	total := 0
	for i := range c.shards {
		cs := &c.shards[i]
		cs.mu.RLock()
		total += len(cs.m)
		cs.mu.RUnlock()
	}
	return total
}
