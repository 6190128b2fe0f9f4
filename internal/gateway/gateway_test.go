package gateway

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/p2p"
	"p2psum/internal/query"
	"p2psum/internal/routing"
	"p2psum/internal/saintetiq"
	"p2psum/internal/summarystore"
)

// len returns the resident entry count.
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

// fakeBackend serves a fixed domain from an optional real summary store,
// counting upstream executions.
type fakeBackend struct {
	st    *summarystore.Store
	alpha float64
	// block, when non-nil, parks Execute until closed (singleflight tests).
	block   chan struct{}
	entered chan struct{} // closed when the first Execute starts
	once    sync.Once
	execs   atomic.Int64
}

const fakeDomain = p2p.NodeID(7)

func (f *fakeBackend) Domain(origin p2p.NodeID) p2p.NodeID {
	if origin < 0 {
		return -1
	}
	return fakeDomain
}

func (f *fakeBackend) Store(domain p2p.NodeID) *summarystore.Store { return f.st }

func (f *fakeBackend) Execute(origin p2p.NodeID, q query.Query) (*routing.DataAnswer, error) {
	n := f.execs.Add(1)
	if f.entered != nil {
		f.once.Do(func() { close(f.entered) })
	}
	if f.block != nil {
		<-f.block
	}
	return &routing.DataAnswer{Peers: []p2p.NodeID{origin}, Visited: int(n)}, nil
}

func (f *fakeBackend) Alpha() float64 {
	if f.alpha > 0 {
		return f.alpha
	}
	return 0.2
}

// diseaseQuery is a valid medical-vocabulary query pinned to one disease —
// the shard partition maps it to a single candidate shard.
func diseaseQuery(disease string) query.Query {
	return query.Query{
		Select: []string{"age"},
		Where:  []query.Clause{{Attr: "disease", Labels: []string{disease}}},
	}
}

// diseaseTree builds a local summary whose leaves all carry one disease.
func diseaseTree(t testing.TB, disease string, ages []float64, peer saintetiq.PeerID) *saintetiq.Tree {
	t.Helper()
	rel := data.NewRelation("r", data.PatientSchema())
	for i, age := range ages {
		rel.MustInsert(data.Record{
			ID:     fmt.Sprintf("%s-%d", disease, i),
			Values: []data.Value{data.NumValue(age), data.StrValue("female"), data.NumValue(20), data.StrValue(disease)},
		})
	}
	mapper, err := cells.NewMapper(bk.Medical(), data.PatientSchema())
	if err != nil {
		t.Fatal(err)
	}
	st := cells.NewStore(mapper)
	st.AddRelation(rel)
	tr := saintetiq.New(bk.Medical(), saintetiq.DefaultConfig())
	if err := tr.IncorporateStore(st, peer); err != nil {
		t.Fatal(err)
	}
	return tr
}

func newShardedStore(t testing.TB) *summarystore.Store {
	t.Helper()
	st := summarystore.New(bk.Medical(), saintetiq.DefaultConfig(), 4)
	if err := st.Merge(diseaseTree(t, "anorexia", []float64{15, 18}, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Merge(diseaseTree(t, "malaria", []float64{30, 40}, 2)); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSingleflight: N concurrent identical queries produce exactly one
// upstream execution; every caller gets the same answer.
func TestSingleflight(t *testing.T) {
	const n = 32
	be := &fakeBackend{block: make(chan struct{}), entered: make(chan struct{})}
	g := New(Config{Rate: 1e9}, be)
	q := diseaseQuery("malaria")

	answers := make(chan *routing.DataAnswer, n)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := g.Connect()
			defer c.Close()
			a, _, err := c.Query(3, q)
			answers <- a
			errs <- err
		}()
	}
	<-be.entered
	// Wait until every follower joined the leader's flight, then release.
	deadline := time.Now().Add(5 * time.Second)
	for g.Snapshot().Coalesced < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d coalesced", g.Snapshot().Coalesced, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(be.block)
	wg.Wait()
	close(answers)
	close(errs)

	if got := be.execs.Load(); got != 1 {
		t.Fatalf("upstream executions = %d, want 1", got)
	}
	var first *routing.DataAnswer
	for a := range answers {
		if a == nil {
			t.Fatal("nil answer")
		}
		if first == nil {
			first = a
		} else if a != first {
			t.Fatal("followers got a different answer object than the leader")
		}
	}
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	s := g.Snapshot()
	if s.Misses != 1 || s.Coalesced != n-1 {
		t.Fatalf("misses=%d coalesced=%d, want 1 and %d", s.Misses, s.Coalesced, n-1)
	}
}

// TestSingleflightFollowerAfterInstall: a request that joins a flight
// after an install touched the flight's shards must not be handed the
// flight's answer, which may predate the install.
func TestSingleflightFollowerAfterInstall(t *testing.T) {
	st := newShardedStore(t)
	be := &fakeBackend{st: st, block: make(chan struct{}), entered: make(chan struct{})}
	g := New(Config{Rate: 1e9}, be)
	q := diseaseQuery("malaria")
	ask := func(out chan<- *routing.DataAnswer) {
		c := g.Connect()
		defer c.Close()
		a, _, err := c.Query(3, q)
		if err != nil {
			t.Error(err)
		}
		out <- a
	}
	leader, follower := make(chan *routing.DataAnswer, 1), make(chan *routing.DataAnswer, 1)
	go ask(leader)
	<-be.entered
	if err := st.Merge(diseaseTree(t, "malaria", []float64{25}, 9)); err != nil {
		t.Fatal(err)
	}
	go ask(follower)
	deadline := time.Now().Add(5 * time.Second)
	for g.Snapshot().Coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the follower never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(be.block)
	if la, fa := <-leader, <-follower; la == nil || fa == nil || fa == la {
		t.Fatal("the follower shared an answer read before the install")
	}
	if got := be.execs.Load(); got != 2 {
		t.Fatalf("upstream executions = %d, want 2 (the flight, the follower's refresh)", got)
	}
}

// TestGenerationInvalidation: a shard delta invalidates exactly the
// entries whose candidate shards were touched — no global flush.
func TestGenerationInvalidation(t *testing.T) {
	st := newShardedStore(t)
	be := &fakeBackend{st: st}
	g := New(Config{Rate: 1e9}, be)
	c := g.Connect()
	defer c.Close()

	qa, qb := diseaseQuery("anorexia"), diseaseQuery("malaria")
	ask := func(q query.Query) bool {
		t.Helper()
		_, hit, err := c.Query(3, q)
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}
	if ask(qa) || ask(qb) {
		t.Fatal("first queries hit an empty cache")
	}
	if !ask(qa) || !ask(qb) {
		t.Fatal("repeat queries missed")
	}

	// Install a delta that only touches malaria's shard.
	if err := st.Merge(diseaseTree(t, "malaria", []float64{25}, 9)); err != nil {
		t.Fatal(err)
	}
	if !ask(qa) {
		t.Error("anorexia entry dropped by a malaria-only install (global flush?)")
	}
	if ask(qb) {
		t.Error("malaria entry served stale across a malaria install")
	}
	s := g.Snapshot()
	if s.Invalidated != 1 {
		t.Errorf("invalidated = %d, want 1", s.Invalidated)
	}
	if got := be.execs.Load(); got != 3 {
		t.Errorf("upstream executions = %d, want 3 (qa, qb, qb-refresh)", got)
	}
	if !ask(qb) {
		t.Error("refreshed malaria entry missed")
	}
}

// TestOnInstallScrub: the install hook proactively drops stale entries of
// the touched domain (space reclamation ahead of the lazy lookups).
func TestOnInstallScrub(t *testing.T) {
	st := newShardedStore(t)
	be := &fakeBackend{st: st}
	g := New(Config{Rate: 1e9}, be)
	c := g.Connect()
	defer c.Close()
	for _, d := range []string{"anorexia", "malaria"} {
		if _, _, err := c.Query(3, diseaseQuery(d)); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.cache.len(); got != 2 {
		t.Fatalf("cache holds %d entries, want 2", got)
	}
	if err := st.Merge(diseaseTree(t, "malaria", []float64{25}, 9)); err != nil {
		t.Fatal(err)
	}
	g.OnInstall(fakeDomain, 1)
	if got := g.cache.len(); got != 1 {
		t.Errorf("after scrub cache holds %d entries, want 1", got)
	}
	s := g.Snapshot()
	if s.Installs != 1 || s.Invalidated != 1 {
		t.Errorf("installs=%d invalidated=%d, want 1 and 1", s.Installs, s.Invalidated)
	}
}

// TestStaleDropCountsOnce: the drop step of a stale lookup counts a
// removal only when it made it. Of two readers that found one stale
// entry, the second counts nothing, and so does a reader whose entry
// scrub removed first.
func TestStaleDropCountsOnce(t *testing.T) {
	st := newShardedStore(t)
	var c cache
	c.init(cacheCapacity)
	var ctr counters
	stale := &entry{domain: fakeDomain, st: st, shards: []int{0}, gens: []uint64{st.Generation(0) + 1}}
	expired := &entry{domain: fakeDomain}
	for h, e := range []*entry{stale, expired} {
		c.put(uint64(h), e, &ctr)
		c.drop(uint64(h), e, &ctr)
		c.drop(uint64(h), e, &ctr)
	}
	if inv, exp := ctr.invalidated.Load(), ctr.expired.Load(); inv != 1 || exp != 1 {
		t.Fatalf("two drops of one entry: invalidated=%d expired=%d, want 1 and 1", inv, exp)
	}
	c.put(2, stale, &ctr)
	ctr.invalidated.Add(uint64(c.scrub(fakeDomain, st)))
	c.drop(2, stale, &ctr)
	if inv := ctr.invalidated.Load(); inv != 2 {
		t.Errorf("scrub then drop of one entry: invalidated=%d, want 2", inv)
	}
}

// TestAdmissionThrottle: a client over its token bucket is shed with
// ErrThrottled; a second client is unaffected (per-client buckets).
func TestAdmissionThrottle(t *testing.T) {
	be := &fakeBackend{}
	g := New(Config{Rate: 1e-9}, be) // burst clamps to 1 token, no refill
	c := g.Connect()
	defer c.Close()
	q := diseaseQuery("malaria")
	if _, _, err := c.Query(3, q); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(3, q); !errors.Is(err, ErrThrottled) {
		t.Fatalf("second query err = %v, want ErrThrottled", err)
	}
	c2 := g.Connect()
	defer c2.Close()
	if _, _, err := c2.Query(3, q); err != nil {
		t.Fatalf("fresh client throttled by another client's bucket: %v", err)
	}
	if s := g.Snapshot(); s.Shed != 1 {
		t.Errorf("shed = %d, want 1", s.Shed)
	}
}

// TestFairQueueRoundRobin: a freed slot goes to the next *client* in
// round-robin order, not the next waiter in global FIFO order — a client
// with many queued requests gets one turn per cycle.
func TestFairQueueRoundRobin(t *testing.T) {
	var q fairQueue
	q.init(1, 64)
	a, b, c := &Client{}, &Client{}, &Client{}
	if err := q.acquire(a, time.Second); err != nil {
		t.Fatal(err)
	}

	granted := make(chan string, 3)
	wait := func(c *Client, label string) {
		go func() {
			if err := q.acquire(c, 5*time.Second); err != nil {
				granted <- "err:" + err.Error()
				return
			}
			granted <- label
		}()
		// Queue registration is synchronous up to the select; spin until
		// the waiter is visible so registration order is deterministic.
		deadline := time.Now().Add(time.Second)
		for {
			q.mu.Lock()
			n := len(c.waiters)
			q.mu.Unlock()
			if n > 0 || time.Now().After(deadline) {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	wait(b, "b1")
	q.mu.Lock()
	bWaiters := len(b.waiters)
	q.mu.Unlock()
	if bWaiters != 1 {
		t.Fatalf("b has %d waiters, want 1", bWaiters)
	}
	go func() { // b's second request; joins b's FIFO behind b1
		if err := q.acquire(b, 5*time.Second); err != nil {
			granted <- "err:" + err.Error()
			return
		}
		granted <- "b2"
	}()
	for {
		q.mu.Lock()
		n := len(b.waiters)
		q.mu.Unlock()
		if n == 2 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	wait(c, "c1")

	q.release() // a done -> b's turn (b1)
	if got := <-granted; got != "b1" {
		t.Fatalf("first grant = %q, want b1", got)
	}
	q.release() // b1 done -> c's turn (c1), not b2
	if got := <-granted; got != "c1" {
		t.Fatalf("second grant = %q, want c1 (round-robin)", got)
	}
	q.release() // c1 done -> back to b (b2)
	if got := <-granted; got != "b2" {
		t.Fatalf("third grant = %q, want b2", got)
	}
	q.release()
	q.mu.Lock()
	slots := q.slots
	q.mu.Unlock()
	if slots != 1 {
		t.Fatalf("slots = %d after all releases, want 1", slots)
	}
}

// TestFairQueueBounds: per-client queue bound sheds with ErrOverloaded,
// and a waiter that never gets a slot times out with ErrQueueTimeout.
func TestFairQueueBounds(t *testing.T) {
	var q fairQueue
	q.init(1, 1)
	a, b := &Client{}, &Client{}
	if err := q.acquire(a, time.Second); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- q.acquire(b, 50*time.Millisecond) }()
	for {
		q.mu.Lock()
		n := len(b.waiters)
		q.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := q.acquire(b, time.Millisecond); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-bound acquire err = %v, want ErrOverloaded", err)
	}
	if err := <-done; !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("starved waiter err = %v, want ErrQueueTimeout", err)
	}
	// The timed-out waiter must have deregistered itself.
	q.mu.Lock()
	n := len(b.waiters)
	q.mu.Unlock()
	if n != 0 {
		t.Fatalf("b still has %d waiters after timeout", n)
	}
	q.release()
	if err := q.acquire(b, time.Second); err != nil {
		t.Fatalf("acquire after drain: %v", err)
	}
}

// TestTTLFallback: without a readable store the cache falls back to the
// α window; two installs 1 ms apart clamp it to minTTL, entries expire
// after it, and the Expired counter says so.
func TestTTLFallback(t *testing.T) {
	be := &fakeBackend{} // st == nil: no generation basis
	g := New(Config{Rate: 1e9}, be)
	t0 := time.Now()
	g.noteInstall(fakeDomain, t0.Add(-time.Millisecond))
	g.noteInstall(fakeDomain, t0)
	c := g.Connect()
	defer c.Close()
	q := diseaseQuery("malaria")
	if _, hit, _ := c.Query(3, q); hit {
		t.Fatal("cold cache hit")
	}
	if _, hit, _ := c.Query(3, q); !hit {
		t.Fatal("warm entry missed inside the TTL window")
	}
	time.Sleep(minTTL + 20*time.Millisecond)
	if _, hit, _ := c.Query(3, q); hit {
		t.Fatal("entry served past its TTL")
	}
	if s := g.Snapshot(); s.Expired != 1 {
		t.Errorf("expired = %d, want 1", s.Expired)
	}
}

// TestAlphaTTL: the window is α × the observed install cadence, clamped to
// [minTTL, maxTTL].
func TestAlphaTTL(t *testing.T) {
	be := &fakeBackend{alpha: 0.5}
	g := New(Config{}, be)
	d := p2p.NodeID(4)
	if got := g.ttl(d); got != maxTTL {
		t.Fatalf("unobserved domain ttl = %v, want maxTTL", got)
	}
	t0 := time.Now()
	g.noteInstall(d, t0)
	g.noteInstall(d, t0.Add(time.Second)) // ewma = 1s
	if got := g.ttl(d); got != 500*time.Millisecond {
		t.Fatalf("ttl = %v, want 500ms (α=0.5 × 1s)", got)
	}
	g2 := New(Config{}, be)
	g2.noteInstall(d, t0)
	g2.noteInstall(d, t0.Add(time.Millisecond))
	if got := g2.ttl(d); got != minTTL {
		t.Fatalf("ttl = %v, want minTTL clamp", got)
	}
	g3 := New(Config{}, be)
	g3.noteInstall(d, t0)
	g3.noteInstall(d, t0.Add(time.Hour))
	if got := g3.ttl(d); got != maxTTL {
		t.Fatalf("ttl = %v, want maxTTL clamp", got)
	}
}

// TestCacheEviction: a full cache stripe evicts to admit new entries and
// counts it.
func TestCacheEviction(t *testing.T) {
	var c cache
	c.init(cacheShards) // 1 entry per stripe
	var ctr counters
	for h := uint64(0); h < 4*cacheShards; h++ {
		c.put(h, &entry{domain: fakeDomain}, &ctr)
	}
	if got := c.len(); got != cacheShards {
		t.Errorf("cache holds %d entries, capacity %d", got, cacheShards)
	}
	if got := ctr.evicted.Load(); got != 3*cacheShards {
		t.Errorf("evicted = %d, want %d", got, 3*cacheShards)
	}
}

// TestStatsString: the SIGUSR1 one-liner mentions every counter.
func TestStatsString(t *testing.T) {
	s := Stats{Queries: 9, Hits: 4}.String()
	for _, want := range []string{"queries=9", "hits=4", "shed=", "coalesced=", "invalidated="} {
		if !contains(s, want) {
			t.Errorf("Stats.String() %q misses %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
