//go:build !race

package core

// checkTokenSize is off in regular builds: a ring token's running id-list
// count is trusted. See tokencheck_race.go.
const checkTokenSize = false
