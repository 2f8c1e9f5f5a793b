package eventsim

import (
	"fmt"

	"inceptionn/internal/netsim"
	"inceptionn/internal/obs"
)

// FromNet maps the closed-form model's cluster onto this simulator's: link
// capacity, the single-stream goodput ceiling as the per-flow cap, and the
// per-hop latency.
func FromNet(np netsim.Params) Params {
	return Params{
		LineRate:  np.LineRate,
		StreamCap: np.StreamEfficiency * np.LineRate,
		Latency:   np.Latency,
	}
}

// Iteration describes one training iteration for Replay.
type Iteration struct {
	Strategy   string // "ring" or "switch", the strategies with a span-emitting model
	Workers    int
	ModelBytes int64 // raw gradient bytes per worker
	// Traffic packetizes a message of the given raw size; its WireBytes
	// are what the message's flow carries. nil carries the raw bytes.
	Traffic func(rawBytes int64) netsim.Traffic
	// SumDelayPerStep is the ring's reduction delay per reduce-scatter
	// step, in seconds (the switch combines at np.SwitchRate instead).
	SumDelayPerStep float64
	Compute         float64   // per-node compute seconds before the first send
	NodeDelay       []float64 // optional extra compute per node (stragglers)
}

// Replay simulates iters consecutive iterations of it on the cluster np
// and emits the measured-run span schema into rec (nil records nothing),
// chaining the iterations on one virtual timeline: each starts where the
// previous one ended. The ring moves netsim.RingBlockBytes blocks; the
// switch streams through np.SwitchMem()-sized chunks and combines at
// np.SwitchRate(). Returns the summed iteration seconds, or an error for a
// strategy that has no span-emitting event model.
func Replay(np netsim.Params, it Iteration, iters int, rec *obs.Recorder) (float64, error) {
	wire := func(rawBytes int64) float64 {
		if it.Traffic == nil {
			return float64(rawBytes)
		}
		return float64(it.Traffic(rawBytes).WireBytes)
	}
	p := FromNet(np)
	var one func(iter int, baseNs int64) float64
	switch it.Strategy {
	case "ring":
		block := wire(netsim.RingBlockBytes(it.ModelBytes, it.Workers))
		one = func(iter int, baseNs int64) float64 {
			return RingTraceDelays(p, it.Workers, block, it.SumDelayPerStep, it.Compute, it.NodeDelay, rec, iter, baseNs)
		}
	case "switch":
		model := wire(it.ModelBytes)
		one = func(iter int, baseNs int64) float64 {
			return SwitchTraceDelays(p, it.Workers, model, float64(np.SwitchMem()), 1/np.SwitchRate(), it.Compute, it.NodeDelay, rec, iter, baseNs)
		}
	default:
		return 0, fmt.Errorf("eventsim: no span-emitting model for strategy %q (want ring or switch)", it.Strategy)
	}
	var total float64
	var baseNs int64
	for iter := 0; iter < iters; iter++ {
		dur := one(iter, baseNs)
		baseNs += int64(dur * 1e9)
		total += dur
	}
	return total, nil
}
