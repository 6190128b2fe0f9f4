package p2p

import (
	"fmt"
	"testing"

	"p2psum/internal/topology"
)

// BenchmarkGroupedDispatchThroughput measures concurrent handler
// throughput under sharded dispatch: independent star domains serve
// CPU-bound request/response pairs (a stand-in for summary-query messages
// answered at a domain peer), and the dispatcher count decides how many
// domains' handlers run in parallel. Expected shape: messages/sec grows
// with dispatchers until the domain count (8) or GOMAXPROCS is reached —
// on a single-CPU box the CPU-bound handlers cannot overlap and the curve
// is flat (see BenchmarkMultiDomainReconcile in internal/experiments,
// whose queue-contention relief shows even there).
func BenchmarkGroupedDispatchThroughput(b *testing.B) {
	const clusters, size = 8, 8
	for _, d := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("dispatchers=%d", d), func(b *testing.B) {
			g, _ := topology.DisjointStars(clusters, size, 0.02)
			ct := NewChannelTransport(g, 1, ChannelConfig{Dispatchers: d})
			defer ct.Close()
			ct.SetGroupBy(func(id NodeID) int { return int(id) / size })
			work := func() {
				// ~10µs of handler CPU: the summary selection a query
				// message costs at a domain peer. Handler work must
				// dominate the per-message bookkeeping for the dispatcher
				// count to matter, exactly like real data-level handlers.
				s := 0.0
				for k := 1; k < 4000; k++ {
					s += 1 / float64(k)
				}
				benchSink = s
			}
			for i := 0; i < ct.Len(); i++ {
				id := NodeID(i)
				if int(id)%size == 0 {
					// Hub: answer the request to the asking spoke.
					ct.SetHandler(id, func(msg *Message) {
						work()
						ct.SendNew("resp", id, msg.From, 0, nil)
					})
				} else {
					ct.SetHandler(id, func(msg *Message) { work() })
				}
			}
			b.ResetTimer()
			sent := 0
			for sent < b.N {
				batch := 512
				if rem := b.N - sent; rem < batch {
					batch = rem
				}
				for k := 0; k < batch; k++ {
					i := (sent + k) % (clusters * (size - 1))
					c, s := i/(size-1), i%(size-1)+1
					ct.SendNew("req", NodeID(c*size+s), NodeID(c*size), 0, nil)
				}
				sent += batch
				ct.Settle()
			}
			b.StopTimer()
			b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}

// benchSink defeats dead-code elimination of the benchmark handler work.
var benchSink float64
