//go:build race

package fpcodec

func init() { raceEnabled = true }
