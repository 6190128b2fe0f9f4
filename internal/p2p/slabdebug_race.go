//go:build race

package p2p

// releasedMessage is what a released slab slot is overwritten with in
// race-instrumented builds (the builds CI runs the tests under): a handler
// or drop callback that kept its *Message past the call reads To -1 and
// Type "<released>" instead of silently seeing the slot's next message.
// Regular builds clear the slot to the zero Message.
var releasedMessage = Message{To: -1, Type: "<released>"}
