//go:build race

package kgen

// The race detector makes sync.Pool drop items at random and adds
// allocations of its own, so allocation counts are not meaningful.
func init() { raceEnabled = true }
