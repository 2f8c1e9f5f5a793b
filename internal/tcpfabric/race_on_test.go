//go:build race

package tcpfabric

func init() { raceEnabled = true }
