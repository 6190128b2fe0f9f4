package p2p

import (
	"sync"
	"testing"
)

// TestLedgerConcurrentChargeAndMerge charges one ledger from many
// goroutines while a reader keeps taking snapshots (run under -race): the
// final totals equal the sum of the charges, and a snapshot handed to a
// reader is never aliased by later charges.
func TestLedgerConcurrentChargeAndMerge(t *testing.T) {
	const writers, rounds = 8, 500
	var b ledger
	b.charge("m", 1, 10)
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
				t.Errorf("snapshot count went backwards: %d after %d", got, last)
			} else {
				last = got
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b.charge("m", 1, 10)
				b.chargeHops("hop", 2)
			}
		}()
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
