//go:build race

package testutil

// RaceEnabled reports whether the binary runs under the race detector.
const RaceEnabled = true
