package p2p

import (
	"reflect"
	"sync"
	"testing"

	"p2psum/internal/sim"
)

// TestLedgerConcurrentChargeAndMerge charges several ledgers from many
// goroutines while a reader keeps merging (run under -race): the final
// merged totals equal the sum of the charges, and a snapshot handed to a
// reader is never aliased by later charges.
func TestLedgerConcurrentChargeAndMerge(t *testing.T) {
	const ledgers, writers, rounds = 4, 8, 500
	b := newBooks(ledgers)
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

// TestLedgerOneRegionEqualsSequential: the sequential Network is the
// one-ledger case of the sharded one, so the same send/flood/walk script
// must leave equal Counter and Bytes maps on both.
func TestLedgerOneRegionEqualsSequential(t *testing.T) {
	g := testGraph(t, 120, 9)
	seq := NewNetwork(sim.New(), g, 9)
	one, err := NewShardedNetwork(g, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	tally := func(n *Network) (msgs, bytes map[string]int64) {
		handled := 0
		for id := 0; id < n.Len(); id++ {
			n.SetHandler(NodeID(id), func(*Message) { handled++ })
		}
		n.SetDrop(func(*Message) {})
		n.SetOnline(5, false)
		n.SendNew("tcp-test", 0, 1, 0, tcpTestPayload{N: 7, Text: "framed"})
		n.SendNew("bare", 2, 3, 1, nil)
		n.SendNew("bare", 2, 5, 1, nil) // offline destination: charged, dropped
		n.Flood("f", 0, 3, nil, nil)
		n.SelectiveWalk("w", 3, 50, func(id NodeID) bool { return id == 100 })
		n.RandomWalk("r", 4, 20, func(NodeID) bool { return false })
		n.Settle()
		if handled != 2 {
			t.Errorf("handled %d messages, want 2", handled)
		}
		msgs, bytes = map[string]int64{}, map[string]int64{}
		c, b := n.Counter(), n.Bytes()
		for _, name := range c.Names() {
			msgs[name], bytes[name] = c.Get(name), b.Get(name)
		}
		return msgs, bytes
	}
	seqMsgs, seqBytes := tally(seq)
	oneMsgs, oneBytes := tally(one)
	if len(seqMsgs) != 5 {
		t.Fatalf("script charged %v, want five message types", seqMsgs)
	}
	if !reflect.DeepEqual(seqMsgs, oneMsgs) || !reflect.DeepEqual(seqBytes, oneBytes) {
		t.Errorf("sequential charged %v / %v, one region %v / %v", seqMsgs, seqBytes, oneMsgs, oneBytes)
	}
}
