// Package eventsim is a discrete-event, fluid-flow network simulator used
// to validate the closed-form timing model in internal/netsim. Nodes hang
// off a non-blocking switch through full-duplex links; concurrent flows
// share link capacity max-min fairly, each additionally capped by a
// per-stream rate (TCP single-stream goodput). Flows can depend on other
// flows (plus a fixed compute delay), which expresses both the
// worker-aggregator phases and the ring exchange's step pipeline as flow
// DAGs.
//
// The simulation advances between rate-change events (flow arrivals and
// completions), recomputing the max-min fair allocation at each event by
// water-filling. With tens of flows per iteration this is exact and fast.
package eventsim

import (
	"fmt"
	"math"

	"inceptionn/internal/obs"
)

// Params describe the simulated cluster (FromNet derives them from
// netsim.Params; the per-packet stack cost is intentionally absent — this
// simulator validates the pure bandwidth/latency behaviour).
type Params struct {
	LineRate  float64 // link capacity per direction, bytes/s
	StreamCap float64 // per-flow rate ceiling, bytes/s
	Latency   float64 // propagation per node-switch-node path, seconds
}

// FlowID identifies a scheduled flow.
type FlowID int

type flow struct {
	src, dst int
	bytes    float64
	deps     []FlowID
	delay    float64

	ready     float64 // activation time (resolved during Run)
	remaining float64
	done      float64 // delivery time (transfer end + latency)
	active    bool
	finished  bool
	rate      float64
	lastRate  float64 // previous allocation, for rate-change accounting
}

// Sim is one simulation instance.
type Sim struct {
	p     Params
	nodes int
	flows []*flow

	// Observability (optional): flows emit virtual-time send spans and
	// event counters through rec, in the same schema as measured runs.
	rec      *obs.Recorder
	iter     int
	baseNs   int64 // trace-timeline shift applied to emitted spans
	spanNode []int // optional sim-node → trace-node remap for emitted spans
}

// SetObs attaches a recorder: every flow with payload emits a
// virtual-time PhaseSend span (node = flow source, the given iter) via
// RecordRaw, and the run counts flows, events, and max-min rate changes
// as eventsim_* counters. A nil recorder keeps the simulator silent.
func (s *Sim) SetObs(rec *obs.Recorder, iter int) {
	s.rec = rec
	s.iter = iter
}

// secNs converts simulator virtual seconds to span nanoseconds, rounding
// to the nearest nanosecond. Truncation toward zero would leave every
// emitted span a nanosecond short of the float timeline whenever sec*1e9
// lands below the representable integer, drifting sim spans against the
// flow done-times obs.Calibrate diffs them with.
func secNs(sec float64) int64 { return int64(math.Round(sec * 1e9)) }

// traceNode maps a sim node index to the node id recorded on spans.
func (s *Sim) traceNode(n int) int {
	if s.spanNode != nil {
		return s.spanNode[n]
	}
	return n
}

// Timing returns a flow's resolved activation and delivery times. Valid
// after Run.
func (s *Sim) Timing(id FlowID) (ready, done float64) {
	f := s.flows[id]
	return f.ready, f.done
}

// New returns a simulator over the given node count.
func New(p Params, nodes int) *Sim {
	if nodes < 1 || p.LineRate <= 0 || p.StreamCap <= 0 {
		panic(fmt.Sprintf("eventsim: invalid setup nodes=%d %+v", nodes, p))
	}
	return &Sim{p: p, nodes: nodes}
}

// AddFlow schedules a transfer of bytes from src to dst that starts delay
// seconds after every dependency has been *delivered*. It returns the
// flow's id. Zero-byte flows act as pure synchronization/delay points.
func (s *Sim) AddFlow(src, dst int, bytes float64, deps []FlowID, delay float64) FlowID {
	if src < 0 || src >= s.nodes || dst < 0 || dst >= s.nodes {
		panic(fmt.Sprintf("eventsim: flow %d->%d outside %d nodes", src, dst, s.nodes))
	}
	if bytes < 0 || delay < 0 {
		panic("eventsim: negative bytes or delay")
	}
	f := &flow{src: src, dst: dst, bytes: bytes, deps: append([]FlowID(nil), deps...), delay: delay}
	s.flows = append(s.flows, f)
	return FlowID(len(s.flows) - 1)
}

// Run executes the simulation and returns each flow's delivery time.
// It may be called once per Sim.
func (s *Sim) Run() []float64 {
	// Resolve activation times; dependencies must be earlier flow ids
	// (a DAG in insertion order).
	for i, f := range s.flows {
		ready := 0.0
		for _, d := range f.deps {
			if int(d) >= i {
				panic(fmt.Sprintf("eventsim: flow %d depends on later flow %d", i, d))
			}
		}
		f.ready = ready // finalized below once deps complete
		f.remaining = f.bytes
	}

	now := 0.0
	resolved := make([]bool, len(s.flows)) // activation time known
	started := make([]bool, len(s.flows))

	flowsC := s.rec.Counter("eventsim_flows")
	eventsC := s.rec.Counter("eventsim_events")
	ratesC := s.rec.Counter("eventsim_rate_changes")
	flowsC.Add(int64(len(s.flows)))

	resolveReady := func() {
		for i, f := range s.flows {
			if resolved[i] {
				continue
			}
			ready := 0.0
			ok := true
			for _, d := range f.deps {
				df := s.flows[d]
				if !df.finished {
					ok = false
					break
				}
				if df.done > ready {
					ready = df.done
				}
			}
			if ok {
				f.ready = ready + f.delay
				resolved[i] = true
			}
		}
	}
	resolveReady()

	for {
		// Activate flows whose time has come.
		for i, f := range s.flows {
			if resolved[i] && !started[i] && f.ready <= now+1e-15 {
				started[i] = true
				if f.remaining == 0 {
					f.finished = true
					f.done = now + s.p.Latency
					resolveReady()
				} else {
					f.active = true
				}
			}
		}

		eventsC.Add(1)
		s.allocateRates()
		for _, f := range s.flows {
			if f.active && f.rate != f.lastRate {
				ratesC.Add(1)
				f.lastRate = f.rate
			}
		}

		// Next event: earliest pending activation or earliest completion.
		next := math.Inf(1)
		for i, f := range s.flows {
			if resolved[i] && !started[i] && f.ready < next {
				next = f.ready
			}
			if f.active && f.rate > 0 {
				if t := now + f.remaining/f.rate; t < next {
					next = t
				}
			}
		}
		if math.IsInf(next, 1) {
			break // nothing running, nothing pending
		}

		// Advance and drain. The finish threshold is relative to the flow
		// size: with 10^8-byte flows, float64 subtraction leaves residues
		// far above any absolute epsilon, which would otherwise stall the
		// clock (dt underflows to zero).
		dt := next - now
		now = next
		for _, f := range s.flows {
			if f.active {
				f.remaining -= f.rate * dt
				// Second disjunct: the flow's residual drain time has
				// underflown the clock (now + remaining/rate == now, so dt
				// can never advance it) — happens when a fitted or
				// configured rate is absurdly high relative to the
				// timescale; without it the loop would spin forever.
				if f.remaining <= 1e-9*(1+f.bytes) ||
					(f.rate > 0 && now+f.remaining/f.rate == now) {
					f.remaining = 0
					f.active = false
					f.finished = true
					f.done = now + s.p.Latency
				}
			}
		}
		resolveReady()
	}

	out := make([]float64, len(s.flows))
	allDone := true
	for i, f := range s.flows {
		if !f.finished {
			allDone = false
		}
		out[i] = f.done
		if f.bytes > 0 {
			// Virtual-time send span: activation to transfer end (delivery
			// minus the propagation leg), attributed to the source node.
			// Start and end are rounded independently so the span's end
			// lands exactly on secNs(done − latency) — rounding a
			// separately-computed duration could leave it a nanosecond off
			// the flow's done-time.
			start := secNs(f.ready)
			end := secNs(f.done - s.p.Latency)
			s.rec.RecordRaw(s.traceNode(f.src), s.iter, obs.PhaseSend, s.baseNs+start, end-start)
		}
	}
	if !allDone {
		panic("eventsim: deadlocked dependency graph")
	}
	return out
}

// allocateRates computes the max-min fair allocation for active flows by
// water-filling over uplink and downlink capacities with per-flow caps.
func (s *Sim) allocateRates() {
	type link struct {
		capacity float64
		flows    []*flow
	}
	links := make(map[int]*link) // key: +node uplink, -node-1 downlink
	var active []*flow
	for _, f := range s.flows {
		if !f.active {
			continue
		}
		active = append(active, f)
		f.rate = -1 // unfrozen
		for _, key := range []int{f.src + 1, -(f.dst + 1)} {
			l := links[key]
			if l == nil {
				l = &link{capacity: s.p.LineRate}
				links[key] = l
			}
			l.flows = append(l.flows, f)
		}
	}
	unfrozen := len(active)
	for unfrozen > 0 {
		// Bottleneck share: the smallest of the per-link fair shares and
		// the stream cap.
		share := s.p.StreamCap
		for _, l := range links {
			n := 0
			for _, f := range l.flows {
				if f.rate < 0 {
					n++
				}
			}
			if n == 0 {
				continue
			}
			if fair := l.capacity / float64(n); fair < share {
				share = fair
			}
		}
		// Freeze every flow constrained at this share: flows on saturated
		// links, or all remaining flows if the stream cap binds.
		frozeAny := false
		for _, l := range links {
			n := 0
			for _, f := range l.flows {
				if f.rate < 0 {
					n++
				}
			}
			if n == 0 {
				continue
			}
			if l.capacity/float64(n) <= share+1e-12 {
				for _, f := range l.flows {
					if f.rate < 0 {
						f.rate = share
						unfrozen--
						frozeAny = true
					}
				}
				l.capacity = 0
			}
		}
		if !frozeAny {
			// The stream cap binds for everyone left.
			for _, f := range active {
				if f.rate < 0 {
					f.rate = share
					unfrozen--
				}
			}
		}
		// Deduct frozen flows' rates from their links' remaining capacity.
		for _, l := range links {
			if l.capacity == 0 {
				continue
			}
			remaining := s.p.LineRate
			for _, f := range l.flows {
				if f.rate >= 0 {
					remaining -= f.rate
				}
			}
			if remaining < 0 {
				remaining = 0
			}
			l.capacity = remaining
		}
	}
}

// delayAt returns delays[i], or 0 past the end of a short (or nil) slice.
func delayAt(delays []float64, i int) float64 {
	if i < len(delays) {
		return delays[i]
	}
	return 0
}

// latest returns the last delivery among a run's flows. Every strategy
// DAG ends in flows that deliver to workers, so this is the time the last
// worker holds the result.
func latest(times []float64) float64 {
	var last float64
	for _, t := range times {
		if t > last {
			last = t
		}
	}
	return last
}

// WorkerAggregatorTimeDelays builds and runs the WA exchange DAG: p workers
// send gradBytes to the aggregator concurrently, the aggregator spends
// sumDelay, then sends weightBytes back to every worker. nodeDelay
// (optional) is the straggler model: nodeDelay[w] seconds before worker
// w's upload starts. Returns the time the last worker holds the weights.
func WorkerAggregatorTimeDelays(p Params, workers int, gradBytes, weightBytes, sumDelay float64, nodeDelay []float64) float64 {
	s := New(p, workers+1)
	agg := workers
	up := make([]FlowID, workers)
	for w := 0; w < workers; w++ {
		up[w] = s.AddFlow(w, agg, gradBytes, nil, delayAt(nodeDelay, w))
	}
	for w := 0; w < workers; w++ {
		s.AddFlow(agg, w, weightBytes, up, sumDelay)
	}
	return latest(s.Run())
}

// ringDAG builds the ring exchange's flow DAG on s, which must span
// workers nodes: 2(p−1) steps; in every step each node forwards one block
// to its right neighbour, and a node's send in step s+1 depends on its own
// receive in step s (plus sumDelayPerStep during the reduce-scatter
// phase). firstDelay[node] stalls only the node's first send (its compute
// phase); sendDelay[node] stalls every one of its sends. Returns
// sent[step][node], the flow node forwards in that step.
func ringDAG(s *Sim, workers int, blockBytes, sumDelayPerStep float64, firstDelay, sendDelay []float64) [][]FlowID {
	steps := 2 * (workers - 1)
	sent := make([][]FlowID, steps)
	var prev []FlowID // prev[node]: the node's receive in the previous step
	for step := range sent {
		sent[step] = make([]FlowID, workers)
		cur := make([]FlowID, workers)
		for node := 0; node < workers; node++ {
			var deps []FlowID
			delay := delayAt(sendDelay, node)
			if prev == nil {
				delay += delayAt(firstDelay, node)
			} else {
				deps = []FlowID{prev[node]}
				if step < workers-1 {
					delay += sumDelayPerStep
				}
			}
			right := (node + 1) % workers
			sent[step][node] = s.AddFlow(node, right, blockBytes, deps, delay)
			cur[right] = sent[step][node]
		}
		prev = cur
	}
	return sent
}

// RingTimeDelays builds and runs the ring exchange DAG and returns the
// time the last node finishes. nodeDelay (optional) delays every send of
// a node: a single straggler stalls every one of its 2(p−1) pipeline
// steps, so the ring is far more straggler-sensitive than the aggregator
// exchange — the known trade-off of synchronous ring collectives,
// quantified in ablation G.
func RingTimeDelays(p Params, workers int, blockBytes, sumDelayPerStep float64, nodeDelay []float64) float64 {
	if workers < 2 {
		return 0
	}
	s := New(p, workers)
	ringDAG(s, workers, blockBytes, sumDelayPerStep, nil, nodeDelay)
	return latest(s.Run())
}

// switchDAG builds the in-network switch all-reduce flow DAG on s, which
// must span 2*workers nodes: workers 0..p−1 and their dedicated switch
// ports p..2p−1 (dedicated node pairs model a non-blocking switch fabric —
// aggregation happens at the port, so no link is ever shared by two
// workers' streams, unlike the worker-aggregator incast). Per chunk k:
// every worker uploads chunk k to its port (serialized per worker by a
// dependency on its previous upload), a zero-byte combine token —
// depending on all of chunk k's uploads and on the previous token —
// serializes the switch's reduction unit and carries the combine time as
// its delay, and each port multicasts the combined chunk back down once
// the token fires. nodeDelay stalls each worker's first upload.
//
// The token is a flow, so its completion charges one propagation hop per
// chunk; a combine-bound switch is thereby overstated by Latency per
// chunk (sub-percent at realistic chunk sizes, and the throttled-switch
// behaviour the blame tooling keys on is unaffected).
//
// Returns the per-chunk upload flows, combine tokens, and download flows.
func switchDAG(s *Sim, workers int, chunkSizes []float64, combinePerByte float64, nodeDelay []float64) (up, down [][]FlowID, combine []FlowID) {
	up = make([][]FlowID, len(chunkSizes))
	down = make([][]FlowID, len(chunkSizes))
	combine = make([]FlowID, len(chunkSizes))
	prevUp := make([]FlowID, workers)
	for w := range prevUp {
		prevUp[w] = -1
	}
	prevTok := FlowID(-1)
	for k, bytes := range chunkSizes {
		up[k] = make([]FlowID, workers)
		for w := 0; w < workers; w++ {
			var deps []FlowID
			delay := delayAt(nodeDelay, w)
			if prevUp[w] >= 0 {
				deps = append(deps, prevUp[w])
				delay = 0
			}
			up[k][w] = s.AddFlow(w, workers+w, bytes, deps, delay)
			prevUp[w] = up[k][w]
		}
		tokDeps := append([]FlowID(nil), up[k]...)
		if prevTok >= 0 {
			tokDeps = append(tokDeps, prevTok)
		}
		combine[k] = s.AddFlow(workers, workers, 0, tokDeps, bytes*combinePerByte)
		prevTok = combine[k]
		down[k] = make([]FlowID, workers)
		for w := 0; w < workers; w++ {
			down[k][w] = s.AddFlow(workers+w, w, bytes, []FlowID{combine[k]}, 0)
		}
	}
	return up, down, combine
}

// switchChunks splits modelBytes into chunkBytes-sized pieces (the
// on-switch buffer bound), the last one possibly smaller.
func switchChunks(modelBytes, chunkBytes float64) []float64 {
	if chunkBytes <= 0 || chunkBytes > modelBytes {
		chunkBytes = modelBytes
	}
	var sizes []float64
	for rem := modelBytes; rem > 0; rem -= chunkBytes {
		c := chunkBytes
		if rem < chunkBytes {
			c = rem
		}
		sizes = append(sizes, c)
	}
	return sizes
}
