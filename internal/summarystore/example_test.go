package summarystore_test

import (
	"fmt"

	"p2psum/internal/bk"
	"p2psum/internal/cells"
	"p2psum/internal/data"
	"p2psum/internal/saintetiq"
	"p2psum/internal/summarystore"
)

// A global summary lives in a Store: the paper's single-tree layout (one
// shard) and a sharded layout ingest the same partner summary and describe
// the same leaves, differing only in locking granularity (one RWMutex vs
// one per shard).
func ExampleNew() {
	b := bk.Medical()
	cfg := saintetiq.DefaultConfig()
	single := summarystore.New(b, cfg, 1)
	sharded := summarystore.New(b, cfg, 4)

	// One partner's local summary: the paper's Table 1 Patient relation.
	mapper, err := cells.NewMapper(b, data.PatientSchema())
	if err != nil {
		panic(err)
	}
	st := cells.NewStore(mapper)
	st.AddRelation(data.PaperPatients())
	local := saintetiq.New(b, cfg)
	if err := local.IncorporateStore(st, 1); err != nil {
		panic(err)
	}

	// Merging(src, S) of §6.1.1, routed to the owning shards.
	if err := single.Merge(local); err != nil {
		panic(err)
	}
	if err := sharded.Merge(local); err != nil {
		panic(err)
	}
	fmt.Println("shards:", single.NumShards(), "vs", sharded.NumShards())
	fmt.Println("same leaves:", single.LeafCount() == sharded.LeafCount())
	fmt.Println("same weight:", single.Weight() == sharded.Weight())
	// Output:
	// shards: 1 vs 4
	// same leaves: true
	// same weight: true
}
