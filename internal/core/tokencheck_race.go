//go:build race

package core

// checkTokenSize makes race-instrumented builds (the builds CI runs the
// tests under) recount a ring token's id lists on every encode and panic
// when the running count the ring keeps has drifted. Regular builds trust
// the count. See ReconcilePayload.idListBytes.
const checkTokenSize = true
