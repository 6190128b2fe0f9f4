// Package wire is the serialization layer of the overlay: a compact,
// versioned binary encoding for protocol frames plus a message-type
// registry mapping every protocol payload to its codec.
//
// The protocol packages (internal/core, internal/routing) register a
// PayloadCodec for each message type they own, typically from an init
// function, so importing a protocol layer is enough to make its payloads
// serializable. The transports (internal/p2p) consult the registry in two
// places: the byte counters charge every message its real encoded frame
// length, and the TCP transport uses the codecs to put frames on actual
// sockets. wire deliberately depends on nothing above the standard
// library, so any layer may import it without cycles.
//
// Frame layout (after the transport's own length prefix):
//
//	version  uint8      (FrameVersion)
//	type     string     (uvarint length + bytes)
//	from     varint     (sender node id)
//	to       varint     (destination node id)
//	ttl      varint
//	hops     varint
//	payload  bool + blob (present only when the message carried a payload)
//
// Integers use the standard varint encodings in minimal form (Dec rejects
// any other, so decoding is canonical), floats are byte-reversed
// IEEE bits varint-encoded (low-precision values cost a few bytes),
// strings and blobs are uvarint-length-prefixed. A frame is fully
// self-delimiting, so truncation is always detected by Dec's error state.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"unsafe"
)

// FrameVersion is the encoding version stamped on every frame; decoders
// reject frames from a different version instead of misparsing them.
// Version 2 changed the summary layout inside payloads (saintetiq's
// encode.go): a summary no longer carries the fields its receiver derives.
const FrameVersion = 2

// Enc appends primitive values to a growing buffer. The zero value is
// ready to use. A counting Enc (NewCountEnc) runs the identical encoding
// logic but only tallies lengths — transports use it to charge a message
// its exact frame size without allocating the serialized bytes.
//
// The hot path uses pooled instances: GetEnc and GetCountEnc hand out
// recycled encoders, Release returns them. A released Enc must not be
// touched again, and no slice obtained from Bytes() may be read after
// Release — race-instrumented builds poison released buffers and panic on
// reuse to surface violations.
type Enc struct {
	buf      []byte
	count    bool
	n        int
	released bool // poolDebug builds only: set between Release and Get
}

// NewCountEnc returns an Enc that measures instead of writing: every
// primitive adds its encoded length to Len() and Bytes() stays nil.
func NewCountEnc() *Enc { return &Enc{count: true} }

// maxPooledEnc caps the capacity of buffers kept in the encoder pool:
// recycling the occasional huge frame buffer would pin its memory for the
// lifetime of the pool, so oversized encoders are dropped on Release.
const maxPooledEnc = 64 << 10

var encPool = sync.Pool{New: func() any { return new(Enc) }}

// GetEnc returns a pooled writing encoder with an empty buffer. Pair it
// with Release; an Enc that is never released is merely garbage, not a
// leak.
func GetEnc() *Enc {
	e := encPool.Get().(*Enc)
	e.buf = e.buf[:0]
	e.count = false
	e.n = 0
	e.released = false
	return e
}

// Reset empties the encoder for reuse, keeping its mode (writing or
// counting) and its buffer's capacity — the unpooled way for an owner
// that sizes many values in a row on one goroutine to reuse one Enc.
func (e *Enc) Reset() {
	e.check()
	e.buf = e.buf[:0]
	e.n = 0
}

// GetCountEnc returns a pooled counting encoder (see NewCountEnc). Pair it
// with Release.
func GetCountEnc() *Enc {
	e := GetEnc()
	e.count = true
	return e
}

// Release returns a pooled encoder for reuse. The encoder and every slice
// its Bytes() ever returned become invalid: under the race detector the
// buffer is poisoned and any further method call panics.
func (e *Enc) Release() {
	if poolDebug {
		if e.released {
			panic("wire: Enc released twice")
		}
		e.released = true
		for i := range e.buf {
			e.buf[i] = 0xDB // poison: stale readers see garbage, loudly
		}
	}
	if cap(e.buf) > maxPooledEnc {
		return // oversized: let the GC take it, keep the pool bounded
	}
	encPool.Put(e)
}

// check panics on use-after-Release in race-instrumented builds; in
// regular builds poolDebug is a false constant and the branch compiles
// away.
func (e *Enc) check() {
	if poolDebug && e.released {
		panic("wire: Enc used after Release")
	}
}

// Bytes returns the encoded buffer (nil on a counting Enc). For a pooled
// encoder the slice is only valid until Release.
func (e *Enc) Bytes() []byte {
	e.check()
	return e.buf
}

// Len returns the number of bytes encoded (or counted) so far.
func (e *Enc) Len() int {
	if e.count {
		return e.n
	}
	return len(e.buf)
}

// UvarintLen is the encoded size of an unsigned varint.
func UvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// VarintLen is the encoded size of a signed (zig-zag) varint.
func VarintLen(v int64) int { return UvarintLen(uint64(v)<<1 ^ uint64(v>>63)) }

// Float64Len is the encoded size of a float64 (see Enc.Float64).
func Float64Len(f float64) int { return UvarintLen(bits.ReverseBytes64(math.Float64bits(f))) }

// Uint8 appends one raw byte.
func (e *Enc) Uint8(b uint8) {
	e.check()
	if e.count {
		e.n++
		return
	}
	e.buf = append(e.buf, b)
}

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(u uint64) {
	e.check()
	if e.count {
		e.n += UvarintLen(u)
		return
	}
	e.buf = binary.AppendUvarint(e.buf, u)
}

// Varint appends a signed (zig-zag) varint.
func (e *Enc) Varint(v int64) {
	e.check()
	if e.count {
		e.n += VarintLen(v)
		return
	}
	e.buf = binary.AppendVarint(e.buf, v)
}

// VarintsLen returns the encoded size of vs's elements as VarintsSized
// writes them, without the length prefix.
func VarintsLen[T ~int | ~int32 | ~int64](vs []T) int {
	n := 0
	for _, v := range vs {
		n += VarintLen(int64(v))
	}
	return n
}

// VarintsSized appends a length-prefixed list of signed (zig-zag) varints
// — the bytes of Uvarint(len) followed by one Varint per element — for a
// caller that keeps the element size n itself: a counting Enc charges the
// length prefix plus n without walking vs, a writing Enc ignores n. n is
// VarintsLen(vs), or a running total that also covers the elements of
// lists the caller writes with n = 0.
func VarintsSized[T ~int | ~int32 | ~int64](e *Enc, vs []T, n int) {
	e.Uvarint(uint64(len(vs)))
	if e.Counted(n) {
		return
	}
	for _, v := range vs {
		e.buf = binary.AppendVarint(e.buf, int64(v))
	}
}

// Counting reports whether e measures instead of writing.
func (e *Enc) Counting() bool { return e.count }

// Counted is the sizing shortcut for a caller that already knows the
// length n of what it is about to write: a counting Enc is charged n and
// Counted reports true, so the caller skips the writes; a writing Enc is
// left alone and Counted reports false.
func (e *Enc) Counted(n int) bool {
	e.check()
	if e.count {
		e.n += n
		return true
	}
	return false
}

// Bool appends a boolean as one byte.
func (e *Enc) Bool(b bool) {
	var x uint8
	if b {
		x = 1
	}
	e.Uint8(x)
}

// Float64 appends the IEEE bits byte-reversed and varint-encoded: the
// exponent-and-sign byte lands in the low bits and the usually-zero
// mantissa tail is dropped, so low-precision values (counts, grades, the
// paper's weights) cost 1–4 bytes instead of 8. NaN and the infinities
// round-trip exactly.
func (e *Enc) Float64(f float64) {
	e.Uvarint(bits.ReverseBytes64(math.Float64bits(f)))
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.Uvarint(uint64(len(s)))
	if e.count {
		e.n += len(s)
		return
	}
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Enc) Blob(b []byte) {
	e.Uvarint(uint64(len(b)))
	if e.count {
		e.n += len(b)
		return
	}
	e.buf = append(e.buf, b...)
}

// Strings appends a length-prefixed list of strings.
func (e *Enc) Strings(ss []string) {
	e.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

// Raw appends b verbatim, with no length prefix — the splice point for a
// unit body that was assembled elsewhere.
func (e *Enc) Raw(b []byte) {
	e.check()
	if e.count {
		e.n += len(b)
		return
	}
	e.buf = append(e.buf, b...)
}

// Skip reserves n zero bytes and returns their offset, to be backfilled
// with FillUint32 once the final value is known (stream-unit length
// prefixes). On a counting Enc the bytes are tallied and the offset is
// still meaningful.
func (e *Enc) Skip(n int) int {
	e.check()
	off := e.Len()
	if e.count {
		e.n += n
		return off
	}
	for i := 0; i < n; i++ {
		e.buf = append(e.buf, 0)
	}
	return off
}

// FillUint32 overwrites 4 reserved bytes at off with the big-endian value
// (no-op on a counting Enc).
func (e *Enc) FillUint32(off int, v uint32) {
	e.check()
	if e.count {
		return
	}
	binary.BigEndian.PutUint32(e.buf[off:off+4], v)
}

// Truncate discards everything appended after length n — the rollback for
// a partially appended unit whose encoding failed.
func (e *Enc) Truncate(n int) {
	e.check()
	if e.count {
		e.n = n
		return
	}
	e.buf = e.buf[:n]
}

// ErrTruncated reports a decode that ran off the end of the buffer — the
// frame was cut short in flight or the codec and encoder disagree.
var ErrTruncated = errors.New("wire: truncated frame")

// ErrNonCanonical reports a value encoded other than the way Enc writes
// it: a varint with redundant trailing zero groups, or a bool byte other
// than 0 or 1. Rejecting these makes decoding canonical — every accepted
// buffer is the encoding of what it decodes to.
var ErrNonCanonical = errors.New("wire: non-canonical encoding")

// Dec consumes primitive values from a buffer. The first failure latches
// into the error state; every later read returns the zero value, so codecs
// can decode unconditionally and check Err once at the end.
//
// A Dec built with NewDec copies every variable-length value out of the
// buffer; NewDecShared borrows instead — see its contract.
type Dec struct {
	buf   []byte
	off   int
	err   error
	share bool
}

// NewDec wraps a buffer for decoding. Blob, String and Strings copy their
// results out of b, so decoded values stay valid however the caller reuses
// the buffer.
func NewDec(b []byte) *Dec { return &Dec{buf: b} }

// NewDecShared wraps a buffer for zero-copy decoding: Blob returns
// sub-slices of b and String/Strings return views over b's bytes. The
// caller promises b is never mutated and outlives every decoded value —
// the TCP read path qualifies (each decode completes, and every retained
// value is rebuilt by a payload codec, before the buffer is reused), and
// so does a buffer read for one message and never reused, whose decoded
// values may keep it alive; the in-memory transports keep the copying Dec.
func NewDecShared(b []byte) *Dec { return &Dec{buf: b, share: true} }

// Err returns the first decode error, or nil.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of unconsumed bytes.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Done returns the latched error, or an error if unconsumed bytes remain —
// a frame must account for every byte it carries.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("wire: %d trailing bytes after decode", len(d.buf)-d.off)
	}
	return nil
}

// fail latches ErrTruncated unless an earlier error is latched already.
func (d *Dec) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

// Uint8 reads one raw byte.
func (d *Dec) Uint8() uint8 {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, n := binary.Uvarint(d.buf[d.off:])
	if !d.advance(n) {
		return 0
	}
	return u
}

// Varint reads a signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if !d.advance(n) {
		return 0
	}
	return v
}

// advance consumes a varint of n bytes as binary.(U)varint reported it,
// failing on a truncated or overflowing one (n <= 0) and on a minimal-form
// violation: a last byte of zero after the first.
func (d *Dec) advance(n int) bool {
	switch {
	case n <= 0:
		d.fail()
		return false
	case n > 1 && d.buf[d.off+n-1] == 0:
		d.err = ErrNonCanonical
		return false
	}
	d.off += n
	return true
}

// Bool reads a boolean.
func (d *Dec) Bool() bool {
	b := d.Uint8()
	if b > 1 {
		d.err = ErrNonCanonical
		return false
	}
	return b == 1
}

// Float64 reads a float written by Enc.Float64.
func (d *Dec) Float64() float64 {
	return math.Float64frombits(bits.ReverseBytes64(d.Uvarint()))
}

// String reads a length-prefixed string. On a shared Dec the result is a
// view over the input buffer (no copy, no allocation).
func (d *Dec) String() string {
	n := d.Uvarint()
	if d.err != nil || uint64(d.Remaining()) < n {
		d.fail()
		return ""
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	if d.share {
		if len(b) == 0 {
			return ""
		}
		// Safe under the NewDecShared contract: the buffer is immutable
		// for the lifetime of the decoded values.
		return unsafe.String(&b[0], len(b))
	}
	return string(b)
}

// Blob reads a length-prefixed byte slice: a copy on a NewDec, a sub-slice
// of the input buffer on a shared Dec.
func (d *Dec) Blob() []byte {
	n := d.Uvarint()
	if d.err != nil || uint64(d.Remaining()) < n {
		d.fail()
		return nil
	}
	end := d.off + int(n)
	var b []byte
	if d.share {
		b = d.buf[d.off:end:end]
	} else {
		b = append([]byte(nil), d.buf[d.off:end]...)
	}
	d.off = end
	return b
}

// SkipString reads past a length-prefixed string (or blob) without
// copying it.
func (d *Dec) SkipString() {
	n := d.Uvarint()
	if d.err != nil || uint64(d.Remaining()) < n {
		d.fail()
		return
	}
	d.off += int(n)
}

// Count reads the length prefix of a list whose every element takes at
// least one byte. A count beyond the remaining bytes is corruption, not a
// huge allocation request: it fails the decode and reads as 0, so a count
// is always safe to size an allocation with.
func (d *Dec) Count() int {
	n := d.Uvarint()
	if d.err != nil || uint64(d.Remaining()) < n {
		d.fail()
		return 0
	}
	return int(n)
}

// Strings reads a length-prefixed list of strings.
func (d *Dec) Strings() []string {
	n := d.Count()
	if d.err != nil {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.String())
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Frame is one protocol message in wire form: the transport-level header
// plus the already-encoded payload. Transport-internal fields (the local
// message id) deliberately stay out, so the encoding of a message is a
// pure function of its protocol content and byte accounting agrees across
// transports and processes.
type Frame struct {
	// Type is the protocol message type (core.MsgPush, ...).
	Type string
	// From and To are overlay node ids.
	From, To int64
	// TTL and Hops mirror the Message header fields.
	TTL, Hops int
	// HasPayload distinguishes "no payload" from an empty encoding.
	HasPayload bool
	// Payload is the codec-encoded payload (nil when HasPayload is false).
	Payload []byte
}

// appendHeader writes everything before the payload blob.
func (f *Frame) appendHeader(e *Enc) {
	e.Uint8(FrameVersion)
	e.String(f.Type)
	e.Varint(f.From)
	e.Varint(f.To)
	e.Varint(int64(f.TTL))
	e.Varint(int64(f.Hops))
	e.Bool(f.HasPayload)
}

// AppendTo appends the frame's encoding to dst and returns the extended
// slice — the no-copy path for a frame whose payload bytes already exist:
// the frame lands directly in the caller's (typically pooled) write buffer
// with no intermediate Encode allocation.
func (f *Frame) AppendTo(dst []byte) []byte {
	e := Enc{buf: dst}
	f.appendHeader(&e)
	if f.HasPayload {
		e.Blob(f.Payload)
	}
	return e.buf
}

// Encode serializes the frame into a fresh buffer.
func (f *Frame) Encode() []byte { return f.AppendTo(nil) }

// AppendHeaderTo appends everything before the payload bytes for a payload
// of encoded length payloadLen: the caller must then append exactly
// payloadLen payload bytes through e (for a payload-less frame the frame is
// already complete). This is the streaming half of AppendTo — a transport
// runs the payload codec directly against a shared write buffer instead of
// materializing Frame.Payload.
func (f *Frame) AppendHeaderTo(e *Enc, payloadLen int) {
	f.appendHeader(e)
	if f.HasPayload {
		e.Uvarint(uint64(payloadLen))
	}
}

// SizeWithPayload returns the encoded frame length for a payload of the
// given length without materializing any bytes — the byte-accounting path
// of every transport, which must report exactly what Encode would
// produce. It is the header layout summed field by field (version byte,
// type string, four varints, payload flag, and the payload blob when
// present); FuzzFrameSize holds it to len(Encode()).
func (f *Frame) SizeWithPayload(payloadLen int) int {
	n := 1 + UvarintLen(uint64(len(f.Type))) + len(f.Type) +
		VarintLen(f.From) + VarintLen(f.To) +
		VarintLen(int64(f.TTL)) + VarintLen(int64(f.Hops)) + 1
	if f.HasPayload {
		n += UvarintLen(uint64(payloadLen)) + payloadLen
	}
	return n
}

// DecodeFrame parses a frame encoded by Encode. The result owns its
// memory: Type and Payload are copied out of b.
func DecodeFrame(b []byte) (*Frame, error) { return decodeFrame(NewDec(b)) }

// DecodeFrameShared parses a frame like DecodeFrame but borrows from b
// under the NewDecShared contract: Frame.Payload aliases b, and Frame.Type
// is resolved to the registry's permanent name (CanonicalType) so the
// string survives buffer reuse. The caller must finish with the payload —
// i.e. run the codec, whose Decode must not retain its input — before
// reusing b.
func DecodeFrameShared(b []byte) (*Frame, error) { return decodeFrame(NewDecShared(b)) }

func decodeFrame(d *Dec) (*Frame, error) {
	if v := d.Uint8(); d.Err() == nil && v != FrameVersion {
		return nil, fmt.Errorf("wire: frame version %d, want %d", v, FrameVersion)
	}
	f := &Frame{
		Type: d.String(),
		From: d.Varint(),
		To:   d.Varint(),
		TTL:  int(d.Varint()),
		Hops: int(d.Varint()),
	}
	if d.share {
		f.Type = CanonicalType(f.Type)
	}
	f.HasPayload = d.Bool()
	if f.HasPayload {
		f.Payload = d.Blob()
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return f, nil
}

// PayloadCodec encodes and decodes one protocol payload type. Encode
// receives the payload exactly as it was handed to Transport.Send and
// appends its encoding to e — which may be a counting Enc, so Encode must
// go through Enc's primitives only, and must be deterministic: the
// transports count a payload first and encode it second, trusting both
// passes to produce the same length. Decode must return the same concrete
// type handlers type-assert on, and must not retain data (or sub-slices of
// it) after returning — transports decode out of reused read buffers.
type PayloadCodec struct {
	// Encode appends the payload's serialization to e.
	Encode func(e *Enc, payload any) error
	// Decode reconstructs the payload from its encoding.
	Decode func(data []byte) (any, error)
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]PayloadCodec)
	// typeNames maps every registered name to its own permanent string, so
	// a borrowed decode can swap a buffer-backed type name for one that
	// survives buffer reuse without allocating.
	typeNames = make(map[string]string)
)

// CanonicalType returns the registry's permanent copy of a message-type
// name — the allocation-free intern step of a borrowed frame decode. An
// unregistered name is cloned instead, so the result never aliases the
// caller's buffer.
func CanonicalType(s string) string {
	regMu.RLock()
	c, ok := typeNames[s]
	regMu.RUnlock()
	if ok {
		return c
	}
	return strings.Clone(s)
}

// Register installs the codec for a message type. Protocol packages call
// it from init; registering a type twice or with missing functions panics
// (it is a wiring bug, not a runtime condition).
func Register(msgType string, c PayloadCodec) {
	if msgType == "" || c.Encode == nil || c.Decode == nil {
		panic("wire: Register needs a type name and both codec functions")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[msgType]; dup {
		panic(fmt.Sprintf("wire: message type %q registered twice", msgType))
	}
	registry[msgType] = c
	typeNames[msgType] = msgType
}

// Lookup returns the codec registered for the message type.
func Lookup(msgType string) (PayloadCodec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := registry[msgType]
	return c, ok
}

// Types returns the registered message types, sorted — tests iterate it to
// prove round-trip coverage of every registered payload.
func Types() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for t := range registry {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
