package summarystore

import (
	"p2psum/internal/bk"
	"p2psum/internal/saintetiq"
)

// NewByKeyHash builds a store on the leaf-key hash partition at any shard
// count, the layout New only picks beyond the widest attribute's
// vocabulary.
func NewByKeyHash(b *bk.BK, cfg saintetiq.Config, shards int) *Store {
	return newStore(b, cfg, shards, byKeyHash)
}
