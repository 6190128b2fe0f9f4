package wire

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestPrimitivesRoundTrip drives randomized values through every Enc/Dec
// primitive pair and requires exact reconstruction plus full consumption.
func TestPrimitivesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		u := rng.Uint64()
		v := rng.Int63() - rng.Int63()
		f := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		b := rng.Intn(2) == 0
		s := randString(rng)
		blob := randBlob(rng)
		ss := []string{randString(rng), "", randString(rng)}

		var e Enc
		e.Uvarint(u)
		e.Varint(v)
		e.Float64(f)
		e.Bool(b)
		e.String(s)
		e.Blob(blob)
		e.Strings(ss)
		e.Uint8(uint8(u))

		d := NewDec(e.Bytes())
		if got := d.Uvarint(); got != u {
			t.Fatalf("uvarint %d != %d", got, u)
		}
		if got := d.Varint(); got != v {
			t.Fatalf("varint %d != %d", got, v)
		}
		if got := d.Float64(); got != f {
			t.Fatalf("float %g != %g", got, f)
		}
		if got := d.Bool(); got != b {
			t.Fatalf("bool %v != %v", got, b)
		}
		if got := d.String(); got != s {
			t.Fatalf("string %q != %q", got, s)
		}
		if got := d.Blob(); string(got) != string(blob) {
			t.Fatalf("blob %q != %q", got, blob)
		}
		if got := d.Strings(); !reflect.DeepEqual(got, ss) {
			t.Fatalf("strings %v != %v", got, ss)
		}
		if got := d.Uint8(); got != uint8(u) {
			t.Fatalf("uint8 %d != %d", got, uint8(u))
		}
		if err := d.Done(); err != nil {
			t.Fatalf("done: %v", err)
		}
	}
}

// TestDecCanonical: each value has one accepted encoding — an overlong
// varint or a bool byte other than 0/1 fails the decode — and Count and
// SkipString refuse lengths beyond the buffer.
func TestDecCanonical(t *testing.T) {
	for name, read := range map[string]func(d *Dec){
		"uvarint": func(d *Dec) { d.Uvarint() },
		"varint":  func(d *Dec) { d.Varint() },
		"float64": func(d *Dec) { d.Float64() },
	} {
		for _, b := range [][]byte{{0x80, 0x00}, {0x81, 0x80, 0x00}} {
			d := NewDec(b)
			read(d)
			if d.Err() != ErrNonCanonical {
				t.Errorf("%s of % x: err %v, want ErrNonCanonical", name, b, d.Err())
			}
		}
		d := NewDec([]byte{0x81, 0x01})
		read(d)
		if err := d.Done(); err != nil {
			t.Errorf("%s of a minimal two-byte varint: %v", name, err)
		}
	}
	if d := NewDec([]byte{2}); d.Bool() || d.Err() != ErrNonCanonical {
		t.Errorf("bool byte 2: err %v, want ErrNonCanonical", d.Err())
	}
	if d := NewDec([]byte{0x80, 0x00, 'a'}); d.String() != "" || d.Err() != ErrNonCanonical {
		t.Errorf("overlong string length: err %v, want ErrNonCanonical", d.Err())
	}
	if d := NewDec([]byte{3, 'a', 'b'}); d.Count() != 0 || d.Err() != ErrTruncated {
		t.Errorf("count 3 over 2 bytes: err %v, want ErrTruncated", d.Err())
	}
	d := NewDec([]byte{2, 'a', 'b', 0})
	d.SkipString()
	if d.Count() != 0 || d.Done() != nil {
		t.Errorf("skip then count 0: %v", d.Err())
	}
	d = NewDec([]byte{3, 'a', 'b'})
	if d.SkipString(); d.Err() != ErrTruncated {
		t.Errorf("skip 3 over 2 bytes: err %v, want ErrTruncated", d.Err())
	}
}

// randVarint draws a signed value of random bit length and sign, so every
// varint width (1 to 10 bytes) and the values at or beyond 2^31 occur.
func randVarint(rng *rand.Rand) int64 {
	v := rng.Int63() >> rng.Intn(63)
	if rng.Intn(2) == 0 {
		v = -v - 1
	}
	return v
}

// checkVarints requires Varints to size exactly what it writes, to write
// the bytes of the per-element Uvarint(len) + Varint encoding, and to
// decode back to vs.
func checkVarints[T ~int | ~int32 | ~int64](t *testing.T, vs []T) {
	t.Helper()
	var w, ref Enc
	c := NewCountEnc()
	Varints(&w, vs)
	Varints(c, vs)
	ref.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		ref.Varint(int64(v))
	}
	if c.Len() != w.Len() {
		t.Fatalf("%v: counted %d bytes, wrote %d", vs, c.Len(), w.Len())
	}
	if string(w.Bytes()) != string(ref.Bytes()) {
		t.Fatalf("%v: wrote % x, per-element encoding % x", vs, w.Bytes(), ref.Bytes())
	}
	d := NewDec(w.Bytes())
	if n := d.Uvarint(); n != uint64(len(vs)) {
		t.Fatalf("%v: length prefix %d", vs, n)
	}
	for i, v := range vs {
		if got := T(d.Varint()); got != v {
			t.Fatalf("%v: element %d decoded %d", vs, i, got)
		}
	}
	if err := d.Done(); err != nil {
		t.Fatalf("%v: %v", vs, err)
	}
}

// TestVarintsCountMatchesWrite holds the one-pass list sizing to the
// writing path over random lists of every element type it accepts,
// negative values and values >= 2^31 included.
func TestVarintsCountMatchesWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	checkVarints(t, []int64(nil))
	checkVarints(t, []int64{math.MinInt64, math.MaxInt64, 1 << 31, -1 << 31, -(1 << 31) - 1, 0, -1})
	for round := 0; round < 500; round++ {
		n := rng.Intn(40)
		i64, i32, in := make([]int64, n), make([]int32, n), make([]int, n)
		for k := range i64 {
			i64[k] = randVarint(rng)
			i32[k] = int32(i64[k])
			in[k] = int(i64[k])
		}
		checkVarints(t, i64)
		checkVarints(t, i32)
		checkVarints(t, in)
	}
}

// TestFloatSpecials pins the IEEE specials the measures layer produces
// (empty measures carry ±Inf bounds).
func TestFloatSpecials(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)} {
		var e Enc
		e.Float64(f)
		d := NewDec(e.Bytes())
		if got := d.Float64(); got != f || math.Signbit(got) != math.Signbit(f) {
			t.Errorf("float %v round-tripped to %v", f, got)
		}
	}
	var e Enc
	e.Float64(math.NaN())
	if got := NewDec(e.Bytes()).Float64(); !math.IsNaN(got) {
		t.Errorf("NaN round-tripped to %v", got)
	}
}

// TestFrameRoundTrip checks the frame header encoding, with and without a
// payload.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 100; round++ {
		f := &Frame{
			Type: randString(rng),
			From: rng.Int63n(1 << 20),
			To:   rng.Int63n(1 << 20),
			TTL:  rng.Intn(16),
			Hops: rng.Intn(16),
		}
		if rng.Intn(2) == 0 {
			f.HasPayload = true
			f.Payload = randBlob(rng)
		}
		got, err := DecodeFrame(f.Encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Type != f.Type || got.From != f.From || got.To != f.To ||
			got.TTL != f.TTL || got.Hops != f.Hops || got.HasPayload != f.HasPayload ||
			string(got.Payload) != string(f.Payload) {
			t.Fatalf("frame %+v round-tripped to %+v", f, got)
		}
	}
}

// TestFrameTruncation cuts an encoded frame at every possible length; each
// prefix must fail to decode, never panic, never mis-decode.
func TestFrameTruncation(t *testing.T) {
	f := &Frame{Type: "reconcile", From: 5, To: 1234, TTL: 2, Hops: 3, HasPayload: true, Payload: []byte("payload-bytes")}
	full := f.Encode()
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeFrame(full[:cut]); err == nil {
			t.Errorf("truncation at %d/%d decoded successfully", cut, len(full))
		}
	}
}

// TestFrameVersionMismatch: a frame stamped with a future version must be
// rejected, not misparsed.
func TestFrameVersionMismatch(t *testing.T) {
	f := &Frame{Type: "push"}
	b := f.Encode()
	b[0] = FrameVersion + 1
	if _, err := DecodeFrame(b); err == nil {
		t.Fatal("future-version frame decoded successfully")
	}
}

// TestRegistry exercises the registration surface on throwaway type names.
func TestRegistry(t *testing.T) {
	codec := PayloadCodec{
		Encode: func(e *Enc, _ any) error { e.Uint8(1); return nil },
		Decode: func([]byte) (any, error) { return 1, nil },
	}
	Register("wire-test-type", codec)
	if !Registered("wire-test-type") {
		t.Fatal("registered type not found")
	}
	if _, ok := Lookup("wire-test-unknown"); ok {
		t.Fatal("unknown type found")
	}
	found := false
	for _, typ := range Types() {
		if typ == "wire-test-type" {
			found = true
		}
	}
	if !found {
		t.Fatal("Types() misses the registered type")
	}
	for _, bad := range []func(){
		func() { Register("wire-test-type", codec) }, // duplicate
		func() { Register("", codec) },
		func() { Register("wire-test-nilfns", PayloadCodec{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Register did not panic")
				}
			}()
			bad()
		}()
	}
}

func randString(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(12))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func randBlob(rng *rand.Rand) []byte {
	b := make([]byte, rng.Intn(40))
	rng.Read(b)
	return b
}
