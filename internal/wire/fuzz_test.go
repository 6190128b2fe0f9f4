package wire

import (
	"bytes"
	"testing"
)

// FuzzFrameDecode feeds arbitrary bytes to both frame decoders: neither
// may panic, both must agree on accept/reject, and on accept the borrowed
// decode must reproduce the copying decode exactly — including after the
// input buffer is clobbered, which is the contract the TCP read loop
// relies on when it reuses its read buffer (the borrowing decode hands out
// views; the caller copies before the buffer is reused, so the comparison
// snapshots first).
func FuzzFrameDecode(f *testing.F) {
	seed := []*Frame{
		{Type: "push", From: 1, To: 2, TTL: 3, Hops: 4},
		{Type: "gossip", From: 1 << 40, To: 0, HasPayload: true, Payload: []byte{}},
		{Type: "reconcile", From: 5, To: 1234, TTL: 2, Hops: 3, HasPayload: true, Payload: []byte("payload-bytes")},
	}
	for _, fr := range seed {
		f.Add(fr.Encode())
	}
	f.Add([]byte{})
	f.Add([]byte{FrameVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		copied, errC := DecodeFrame(data)
		buf := append([]byte(nil), data...)
		shared, errS := DecodeFrameShared(buf)
		if (errC == nil) != (errS == nil) {
			t.Fatalf("decoders disagree: copy err=%v, shared err=%v", errC, errS)
		}
		if errC != nil {
			return
		}
		if !framesEqual(copied, shared) {
			t.Fatalf("copy %+v != shared %+v", copied, shared)
		}
		// The copying decode must be re-encodable to an equivalent frame
		// (canonical round trip).
		again, err := DecodeFrame(copied.Encode())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !framesEqual(copied, again) {
			t.Fatalf("re-encode changed the frame: %+v -> %+v", copied, again)
		}
		// Snapshot the shared decode, then clobber its backing buffer.
		// The payload view goes stale by design (the caller's contract is
		// to copy before reusing the buffer), but the pre-clobber snapshot
		// must match the copying decode, and the Type string must survive
		// — the shared decoder canonicalizes it off the buffer so message
		// dispatch never holds a dangling string.
		sharedPayload := append([]byte(nil), shared.Payload...)
		for i := range buf {
			buf[i] ^= 0xFF
		}
		if shared.Type != copied.Type {
			t.Fatalf("shared Type %q dangled into the clobbered buffer (want %q)", shared.Type, copied.Type)
		}
		if copied.HasPayload && !bytes.Equal(sharedPayload, copied.Payload) {
			t.Fatal("shared payload snapshot diverged from the copy")
		}
	})
}

// framesEqual compares every header field and the payload bytes.
func framesEqual(a, b *Frame) bool {
	return a.Type == b.Type && a.From == b.From && a.To == b.To &&
		a.TTL == b.TTL && a.Hops == b.Hops && a.HasPayload == b.HasPayload &&
		bytes.Equal(a.Payload, b.Payload)
}

// FuzzFrameSize holds the arithmetic SizeWithPayload to the encoder: for
// any type string, any header integers (negative and huge included) and
// any payload length — none, empty or long — the counted length equals
// len(Encode()) of the same frame.
func FuzzFrameSize(f *testing.F) {
	f.Add("push", int64(1), int64(2), int64(0), int64(0), -1)
	f.Add("reconcile", int64(-1), int64(1<<40), int64(-300), int64(1<<62), 0)
	f.Add("", int64(-1<<63), int64(1<<63-1), int64(127), int64(128), 16383)
	f.Add("gossip", int64(0), int64(0), int64(-64), int64(63), 16384)
	f.Fuzz(func(t *testing.T, typ string, from, to, ttl, hops int64, payloadLen int) {
		fr := Frame{Type: typ, From: from, To: to, TTL: int(ttl), Hops: int(hops)}
		if payloadLen >= 0 {
			fr.HasPayload = true
			fr.Payload = make([]byte, payloadLen%(1<<17))
		}
		if got, want := fr.SizeWithPayload(len(fr.Payload)), len(fr.Encode()); got != want {
			t.Fatalf("type of %d bytes, from %d, to %d, ttl %d, hops %d, payload %v of %d bytes: SizeWithPayload %d, Encode %d bytes",
				len(fr.Type), fr.From, fr.To, fr.TTL, fr.Hops, fr.HasPayload, len(fr.Payload), got, want)
		}
	})
}
