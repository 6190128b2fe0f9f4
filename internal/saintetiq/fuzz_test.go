package saintetiq

import (
	"bytes"
	"testing"

	"p2psum/internal/bk"
	"p2psum/internal/wire"
)

// FuzzDecodeWire feeds arbitrary bytes to DecodeWire: it may never panic,
// and whatever it accepts is a valid hierarchy whose re-encoding is a fixed
// point — encode(decode(b)) decodes to the same leaves and encodes to the
// same bytes again (the first re-encoding may differ from b: peer lists come
// back as ascending sets and explicit zero descriptors are dropped).
func FuzzDecodeWire(f *testing.F) {
	small := New(bk.PaperExample(), DefaultConfig()) // three leaves: cheap to mutate
	if err := small.IncorporateStore(paperStore(f), 2, 1); err != nil {
		f.Fatal(err)
	}
	for _, tr := range append(goldenTrees(f), small) {
		b := encodeTree(tr)
		f.Add(b)
		for _, cut := range []int{1, len(b) / 3, len(b) / 2, len(b) - 1} {
			f.Add(b[:cut])
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeWire(wire.NewDec(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted tree is invalid: %v", err)
		}
		once := encodeTree(tr)
		if tr.EncodedSize() != len(once) {
			t.Fatalf("EncodedSize %d, encoding is %d bytes", tr.EncodedSize(), len(once))
		}
		back, err := DecodeWire(wire.NewDec(once))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		// A tree with NaN aggregates is not even equal to itself.
		if back.LeavesEqual(tr) != tr.LeavesEqual(tr) {
			t.Fatal("re-encoding changed the leaves")
		}
		if twice := encodeTree(back); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point: %d then %d bytes", len(once), len(twice))
		}
	})
}
