//go:build race

package rcnet

func init() { raceEnabled = true }
