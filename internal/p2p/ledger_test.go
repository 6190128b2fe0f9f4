package p2p

import (
	"sync"
	"testing"
)

// TestLedgerConcurrentChargeAndMerge charges several ledgers from many
// goroutines while a reader keeps merging (run under -race): the final
// merged totals equal the sum of the charges, and a snapshot handed to a
// reader is never aliased by later charges.
func TestLedgerConcurrentChargeAndMerge(t *testing.T) {
	const ledgers, writers, rounds = 4, 8, 500
	b := make(books, ledgers)
	b[0].charge("m", 1, 10)
	early := b.Counter()

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := b.Counter().Get("m"); got < last {
				t.Errorf("merged count went backwards: %d after %d", got, last)
			} else {
				last = got
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b[(w+i)%ledgers].charge("m", 1, 10)
				b[w%ledgers].chargeHops("hop", 2)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	reader.Wait()

	const sends = 1 + writers*rounds
	const hops = 2 * writers * rounds
	msgs, bytes := b.Counter(), b.Bytes()
	if msgs.Get("m") != sends || bytes.Get("m") != 10*sends {
		t.Errorf("m: %d msgs / %d bytes, want %d / %d", msgs.Get("m"), bytes.Get("m"), sends, 10*sends)
	}
	if msgs.Get("hop") != hops || bytes.Get("hop") != hops*BaseMessageBytes {
		t.Errorf("hop: %d msgs / %d bytes, want %d / %d", msgs.Get("hop"), bytes.Get("hop"), hops, hops*BaseMessageBytes)
	}
	if early.Get("m") != 1 || early.Total() != 1 {
		t.Errorf("snapshot taken before the run now reads %s: aliased by later charges", early)
	}
}

// TestBooksMergeAcrossLanes: the lanes of a two-group ChannelTransport open
// their per-type slots in opposite orders, and the merged Counter and
// Bytes still equal the per-type sums of what was sent. A snapshot taken
// before the last wave keeps reading the earlier totals.
func TestBooksMergeAcrossLanes(t *testing.T) {
	g := testGraph(t, 8, 3)
	ct := NewChannelTransport(g, 1, ChannelConfig{Dispatchers: 2})
	defer ct.Close()
	ct.SetGroupBy(func(id NodeID) int { return int(id) % 2 })
	for i := 0; i < ct.Len(); i++ {
		ct.SetHandler(NodeID(i), func(*Message) {})
	}
	wantMsgs, wantBytes := map[string]int64{}, map[string]int64{}
	send := func(typ string, from, to NodeID) {
		size := frameSize(&Message{Type: typ, From: from, To: to})
		wantMsgs[typ]++
		wantBytes[typ] += size
		ct.SendNew(typ, from, to, 0, nil)
		ct.Settle() // one at a time, so each lane sees the types in order
	}
	// Group 0 (even ids) meets push, reconcile, gossip; group 1 (odd ids)
	// meets them the other way round.
	for _, typ := range []string{"push", "reconcile", "gossip"} {
		send(typ, 1, 2)
	}
	for _, typ := range []string{"gossip", "reconcile", "push"} {
		send(typ, 2, 3)
	}
	if a, b := ct.books[0].types, ct.books[1].types; len(a) != 3 || len(b) != 3 || a[0] == b[0] {
		t.Fatalf("lanes opened slots %v and %v: the test needs two lanes in different orders", a, b)
	}
	check := func(when string, msgs, bytes map[string]int64) {
		gotMsgs, gotBytes := ct.Counter(), ct.Bytes()
		var total int64
		for typ, n := range msgs {
			if gotMsgs.Get(typ) != n || gotBytes.Get(typ) != bytes[typ] {
				t.Errorf("%s: %s reads %d msgs / %d bytes, want %d / %d",
					when, typ, gotMsgs.Get(typ), gotBytes.Get(typ), n, bytes[typ])
			}
			total += n
		}
		if gotMsgs.Total() != total || len(gotMsgs.Names()) != len(msgs) || len(gotBytes.Names()) != len(msgs) {
			t.Errorf("%s: merged %d msgs over %v, want %d over %d types", when, gotMsgs.Total(), gotMsgs.Names(), total, len(msgs))
		}
	}
	check("first wave", wantMsgs, wantBytes)

	early, earlyBytes := ct.Counter(), ct.Bytes()
	frozenMsgs, frozenBytes := map[string]int64{}, map[string]int64{}
	for typ := range wantMsgs {
		frozenMsgs[typ], frozenBytes[typ] = wantMsgs[typ], wantBytes[typ]
	}
	for i := 0; i < 5; i++ {
		send("push", 3, 4)
		send("query", 4, 5)
	}
	check("second wave", wantMsgs, wantBytes)
	for typ := range frozenMsgs {
		if early.Get(typ) != frozenMsgs[typ] || earlyBytes.Get(typ) != frozenBytes[typ] {
			t.Errorf("early snapshot of %s moved to %d / %d after later charges", typ, early.Get(typ), earlyBytes.Get(typ))
		}
	}
	if early.Get("query") != 0 || earlyBytes.Get("query") != 0 {
		t.Error("early snapshot grew a type first charged after it was taken")
	}
}
