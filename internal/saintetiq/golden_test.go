package saintetiq

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/wire"
)

// localTree summarises a rows-row medical relation owned by one peer.
func localTree(t testing.TB, cfg Config, seed int64, rows int, peer PeerID) *Tree {
	t.Helper()
	tr := New(bk.Medical(), cfg)
	if err := tr.IncorporateStore(medicalStore(t, seed, rows), peer); err != nil {
		t.Fatal(err)
	}
	return tr
}

// mergedTree merges n local summaries (peers 0..n-1, sub-seeds seed+i) into
// a fresh hierarchy: the shape of a reconciliation ring token.
func mergedTree(t testing.TB, cfg Config, seed int64, n, rows int) *Tree {
	t.Helper()
	tr := New(bk.Medical(), cfg)
	for i := 0; i < n; i++ {
		if err := tr.Merge(localTree(t, cfg, seed+int64(i), rows, PeerID(i))); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// goldenTrees builds the three fixed-seed hierarchies the golden hashes, the
// fuzz corpus and the property tests share: a single-peer local summary, a
// clone of a ring merge that keeps merging, and a tight-arity tree without
// splits that absorbs a second summary.
func goldenTrees(t testing.TB) []*Tree {
	t.Helper()
	local := localTree(t, DefaultConfig(), 1, 60, 3)
	ring := mergedTree(t, DefaultConfig(), 10, 8, 60).Clone()
	if err := ring.Merge(localTree(t, DefaultConfig(), 99, 200, 8)); err != nil {
		t.Fatal(err)
	}
	tight := localTree(t, Config{MaxChildren: 3}, 7, 400, 1)
	if err := tight.Merge(local); err != nil {
		t.Fatal(err)
	}
	return []*Tree{local, ring, tight}
}

func encodeTree(tr *Tree) []byte {
	var e wire.Enc
	tr.AppendWire(&e)
	return e.Bytes()
}

// TestGoldenEncoding pins the wire bytes and the operator history of the
// three golden trees. The hashes were recorded before peer extents became
// sorted slices and the operator scoring stopped copying count matrices;
// they must never move for a pure speed change.
func TestGoldenEncoding(t *testing.T) {
	want := []struct {
		sha   string
		stats OpStats
		epoch int
	}{
		{"e26ddbf57a1700e7b5c7b3356151b3bc613a73549362f0dd855e5a7bb5c32bcf",
			OpStats{Incorporations: 53, Hosts: 95, Creates: 27, Merges: 6, Splits: 3}, 126},
		{"6a71c776d8697630617d8d4e0545636e19bbde23990255bf841d18f098def5c7",
			OpStats{Incorporations: 574, FastPath: 445, Hosts: 416, Creates: 54, Merges: 25, Splits: 10}, 407},
		{"2f7923e30515a8126029c35317aac60f36c8575b9e72e84763d45a9c7945dfb5",
			OpStats{Incorporations: 158, FastPath: 47, Hosts: 350, Creates: 52, Merges: 26}, 300},
	}
	for i, tr := range goldenTrees(t) {
		sum := sha256.Sum256(encodeTree(tr))
		got := hex.EncodeToString(sum[:])
		w := want[i]
		if got != w.sha || tr.Stats() != w.stats || tr.Epoch() != w.epoch {
			t.Errorf("tree %d: sha %s stats %+v epoch %d, want %s %+v %d",
				i, got, tr.Stats(), tr.Epoch(), w.sha, w.stats, w.epoch)
		}
	}
}
