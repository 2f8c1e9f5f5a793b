//go:build race

package ring

func init() { raceEnabled = true }
