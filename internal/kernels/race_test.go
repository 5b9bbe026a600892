//go:build race

package kernels

func init() { raceEnabled = true }
