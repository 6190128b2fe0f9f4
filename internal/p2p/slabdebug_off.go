//go:build !race

package p2p

// releasedMessage clears a released slab slot in regular builds. See
// slabdebug_race.go.
var releasedMessage Message
