package eventsim

import (
	"inceptionn/internal/obs"
)

// traced attaches rec to s and records every worker's compute phase — the
// prologue the span-emitting strategy functions share. It returns each
// worker's delay before its first send: computeTime plus its optional
// straggler share of nodeDelay.
func traced(s *Sim, workers int, computeTime float64, nodeDelay []float64, rec *obs.Recorder, iter int, baseNs int64) []float64 {
	s.SetObs(rec, iter)
	s.baseNs = baseNs
	compute := make([]float64, workers)
	for node := range compute {
		compute[node] = computeTime + delayAt(nodeDelay, node)
		rec.RecordRaw(node, iter, obs.PhaseCompute, baseNs, secNs(compute[node]))
	}
	return compute
}

// SwitchTraceDelays runs the in-network switch all-reduce DAG (switchDAG:
// p workers stream a modelBytes gradient up in chunkBytes chunks, each
// combine costs its bytes × combinePerByte seconds, serialized across
// chunks, and combined chunks multicast back down every port) and emits
// the measured-run span schema on the simulator's virtual timeline:
// compute/send/recv spans for each worker, and send (multicast down), recv
// (wait for the next chunk's uploads) and reduce (combine engine busy)
// spans for the switch, which appears in the trace as one logical node
// with id == workers (its per-port sim nodes are remapped onto it). A
// throttled combine engine therefore shows up in `inctrace blame` exactly
// like a straggler worker: the switch's recv waits collapse toward zero
// while every worker piles up wait on the downlink, and its reduce spans
// carry the gating time. Returns the exchange finish time in virtual
// seconds (relative to iteration start).
func SwitchTraceDelays(p Params, workers int, modelBytes, chunkBytes, combinePerByte, computeTime float64, nodeDelay []float64, rec *obs.Recorder, iter int, baseNs int64) float64 {
	if workers < 1 || modelBytes <= 0 {
		return 0
	}
	s := New(p, 2*workers)
	// Collapse the per-port sim nodes onto one logical switch node.
	s.spanNode = make([]int, 2*workers)
	for n := range s.spanNode {
		s.spanNode[n] = n
		if n >= workers {
			s.spanNode[n] = workers
		}
	}

	sizes := switchChunks(modelBytes, chunkBytes)
	compute := traced(s, workers, computeTime, nodeDelay, rec, iter, baseNs)
	up, down, combine := switchDAG(s, workers, sizes, combinePerByte, compute)
	times := s.Run()

	last := 0.0
	prevCombineReady := 0.0
	for k := range sizes {
		// Switch recv: wait from the end of the previous combine until the
		// last of this chunk's uploads lands (zero when the combine engine
		// is the bottleneck — the straggler-inversion signal blame keys on).
		arrived := 0.0
		for w := 0; w < workers; w++ {
			if t := times[up[k][w]]; t > arrived {
				arrived = t
			}
		}
		wait := arrived - prevCombineReady
		start := prevCombineReady
		if wait < 0 {
			wait = 0
			start = arrived
		}
		rec.RecordRaw(workers, iter, obs.PhaseRecv, baseNs+secNs(start), secNs(start+wait)-secNs(start))

		// Switch reduce: the combine token's ready time is dep-arrival plus
		// the combine delay, so the engine was busy over [ready−s, ready].
		ready, _ := s.Timing(combine[k])
		sum := sizes[k] * combinePerByte
		rec.RecordRaw(workers, iter, obs.PhaseReduce, baseNs+secNs(ready-sum), secNs(ready)-secNs(ready-sum))
		prevCombineReady = ready

		// Worker recv: wait from the end of a worker's own chunk upload
		// until the combined chunk arrives back (ring convention).
		for w := 0; w < workers; w++ {
			ownEnd := times[up[k][w]] - p.Latency
			delivery := times[down[k][w]]
			wait := delivery - ownEnd
			if wait < 0 {
				wait = 0
				ownEnd = delivery
			}
			rec.RecordRaw(w, iter, obs.PhaseRecv, baseNs+secNs(ownEnd), secNs(wait))
			if delivery > last {
				last = delivery
			}
		}
	}
	return last
}

// RingTraceDelays runs the ring-exchange DAG of RingTimeDelays and emits
// the full per-phase span schema a measured run produces — compute, send,
// recv, reduce — on the simulator's virtual timeline (RecordRaw), so
// `inctrace` can aggregate, blame, and calibrate simulated iterations
// exactly like real ones.
//
// computeTime is each node's compute phase before its first send;
// nodeDelay (optional, per node) adds straggler compute on top. Recv
// spans follow the measured ring's convention — the wait between the end
// of a node's own step send and the arrival of its inbound block — which
// preserves the straggler inversion (minimum wait at the slow node) the
// critical-path attribution keys on. baseNs shifts every emitted span on
// the trace timeline, so consecutive iterations chain instead of
// overlapping at virtual t=0. Returns the exchange finish time in
// virtual seconds (relative to the iteration start, excluding baseNs).
func RingTraceDelays(p Params, workers int, blockBytes, sumDelayPerStep, computeTime float64, nodeDelay []float64, rec *obs.Recorder, iter int, baseNs int64) float64 {
	if workers < 2 {
		return 0
	}
	s := New(p, workers)
	compute := traced(s, workers, computeTime, nodeDelay, rec, iter, baseNs)
	sent := ringDAG(s, workers, blockBytes, sumDelayPerStep, compute, nil)
	times := s.Run()

	// Reconstruct the recv and reduce phases from the resolved flow
	// timings (send spans were emitted by the sim itself).
	last := 0.0
	inbound := make([]FlowID, workers) // node's inbound flow in the previous step
	for i := range inbound {
		inbound[i] = -1
	}
	for step := range sent {
		for node := 0; node < workers; node++ {
			right := (node + 1) % workers
			fid := sent[step][node]
			delivery := times[fid]
			if delivery > last {
				last = delivery
			}
			// Reduce: the summation the sender performed on its inbound
			// block before forwarding it (reduce-scatter steps only).
			if step >= 1 && step < workers-1 && sumDelayPerStep > 0 {
				rec.RecordRaw(node, iter, obs.PhaseReduce, baseNs+secNs(times[inbound[node]]), secNs(sumDelayPerStep))
			}
			// Recv at the right neighbour: wait from the end of its own
			// step send until this block arrives.
			ownEnd := times[sent[step][right]] - p.Latency
			wait := delivery - ownEnd
			if wait < 0 {
				wait = 0
				ownEnd = delivery
			}
			rec.RecordRaw(right, iter, obs.PhaseRecv, baseNs+secNs(ownEnd), secNs(wait))
		}
		for node := 0; node < workers; node++ {
			inbound[(node+1)%workers] = sent[step][node]
		}
	}
	return last
}
