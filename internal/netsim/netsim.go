// Package netsim simulates the timing behaviour of the paper's testbed
// network: nodes attached to a 10 Gb Ethernet switch, exchanging the
// gradient/weight traffic of the two distributed training algorithms.
//
// The model captures the four effects that shape the paper's measured
// numbers (Table II, Figs. 12 and 15):
//
//  1. Aggregate link capacity. A link carries at most LineRate bytes/s no
//     matter how many TCP streams share it — this is what saturates the
//     aggregator's links (the incast bottleneck).
//  2. Single-stream goodput. One TCP stream achieves only
//     StreamEfficiency × LineRate (untuned 10 GbE reality); the ring
//     exchange runs one stream per link, the aggregator enjoys p
//     concurrent streams.
//  3. Per-packet software cost. Every packet costs PerPacketTime of
//     driver/stack work on its stream. NIC compression shrinks payloads
//     but NOT the packet count (it compresses per packet), so transfer
//     time has a per-packet floor — the paper's observation that
//     compression ratio is "not necessarily proportional" to the
//     reduction in communication time and that relaxed error bounds give
//     only marginal additional gains.
//  4. Summation rate. Sum-reduction costs 1/SumRate seconds per byte,
//     concentrated at the aggregator in WA but spread across workers in
//     the ring algorithm.
//
// The same Params also drive the paper's own α-β-γ formulas (Sec. VIII-D,
// analytic.go) and, through eventsim.FromNet, the fluid-flow event model
// that validates this closed form.
package netsim

import (
	"fmt"

	"inceptionn/internal/comm"
)

// Params describe the simulated cluster.
type Params struct {
	LineRate         float64 // link capacity, bytes/s (full duplex per direction)
	StreamEfficiency float64 // fraction of LineRate one stream can reach
	PerPacketTime    float64 // driver+stack seconds per packet per stream
	Latency          float64 // propagation + switch latency per hop (s)
	SumRate          float64 // gradient summation, bytes/s

	// SwitchSumRate is the per-port combine throughput of the switch's
	// in-network reduction unit (bytes/s). The ports' combiners run in
	// parallel into banked accumulators, so a chunk's residency in the
	// reduction pipeline is chunkBytes/SwitchSumRate regardless of port
	// count. 0 defaults to LineRate (a NetReduce-style line-rate ASIC).
	SwitchSumRate float64
	// SwitchMemBytes bounds the switch's on-chip aggregation buffer:
	// gradients larger than this stream through the switch in
	// SwitchMemBytes-sized chunks (upload, combine, and multicast of
	// consecutive chunks pipeline). 0 defaults to 1 MiB.
	SwitchMemBytes int64
}

// Default10GbE returns parameters calibrated so that the simulated
// worker-aggregator exchange reproduces the communication column of the
// paper's Table II (see trainsim tests): 10 Gb/s links, 45% single-stream
// goodput, 1.1 µs per-packet software cost, 30 µs hop latency, 8 GB/s
// summation.
func Default10GbE() Params {
	return Params{
		LineRate:         1.25e9,
		StreamEfficiency: 0.45,
		PerPacketTime:    1.1e-6,
		Latency:          30e-6,
		SumRate:          8e9,
		SwitchSumRate:    1.25e9,
		SwitchMemBytes:   1 << 20,
	}
}

// SwitchRate resolves the switch combine rate (SwitchSumRate, 0 = line
// rate). Every consumer of the switch defaults reads them here.
func (p Params) SwitchRate() float64 {
	if p.SwitchSumRate > 0 {
		return p.SwitchSumRate
	}
	return p.LineRate
}

// SwitchMem resolves the on-switch buffer bound (SwitchMemBytes, 0 =
// 1 MiB).
func (p Params) SwitchMem() int64 {
	if p.SwitchMemBytes > 0 {
		return p.SwitchMemBytes
	}
	return 1 << 20
}

// Validate reports whether the parameters are usable. Each check is
// written so that a NaN fails it.
func (p Params) Validate() error {
	switch {
	case !(p.LineRate > 0):
		return fmt.Errorf("netsim: LineRate %g must be > 0", p.LineRate)
	case !(p.SumRate > 0):
		return fmt.Errorf("netsim: SumRate %g must be > 0", p.SumRate)
	case !(p.StreamEfficiency > 0 && p.StreamEfficiency <= 1):
		return fmt.Errorf("netsim: StreamEfficiency %g out of (0,1]", p.StreamEfficiency)
	case !(p.PerPacketTime >= 0):
		return fmt.Errorf("netsim: PerPacketTime %g must be >= 0", p.PerPacketTime)
	case !(p.Latency >= 0):
		return fmt.Errorf("netsim: Latency %g must be >= 0", p.Latency)
	case !(p.SwitchSumRate >= 0):
		return fmt.Errorf("netsim: SwitchSumRate %g must be >= 0", p.SwitchSumRate)
	case p.SwitchMemBytes < 0:
		return fmt.Errorf("netsim: SwitchMemBytes %d must be >= 0", p.SwitchMemBytes)
	}
	return nil
}

// Traffic describes one logical message on the wire.
type Traffic struct {
	WireBytes int64 // payload after any compression, plus packet headers
	Packets   int64 // packet count (unchanged by in-NIC compression)
}

// Plain returns the traffic for n uncompressed payload bytes.
func Plain(n int64) Traffic {
	packets := (n + comm.MSS - 1) / comm.MSS
	if packets == 0 {
		packets = 1
	}
	return Traffic{WireBytes: n + packets*comm.HeaderBytes, Packets: packets}
}

// NICCompressed returns the traffic for n raw payload bytes compressed in
// the NIC by the given ratio. The packet count stays that of the RAW
// payload: the engine shrinks each packet's payload in place.
func NICCompressed(n int64, ratio float64) Traffic {
	if ratio < 1 {
		ratio = 1
	}
	packets := (n + comm.MSS - 1) / comm.MSS
	if packets == 0 {
		packets = 1
	}
	payload := int64(float64(n) / ratio)
	return Traffic{WireBytes: payload + packets*comm.HeaderBytes, Packets: packets}
}

// SoftwareCompressed returns the traffic for n raw bytes compressed in
// software: the payload is packetized after compression, so the packet
// count does shrink — but the caller must separately account the codec's
// CPU time (see trainsim).
func SoftwareCompressed(n int64, ratio float64) Traffic {
	if ratio < 1 {
		ratio = 1
	}
	return Plain(int64(float64(n) / ratio))
}

// StreamTime returns the time for one stream to push t over a link it
// shares with `sharing` concurrent streams (including itself): the
// bandwidth term is bounded by both the per-stream goodput ceiling and the
// fair share of line rate, and the per-packet software cost provides the
// floor.
func (p Params) StreamTime(t Traffic, sharing int) float64 {
	if sharing < 1 {
		sharing = 1
	}
	rate := p.StreamEfficiency * p.LineRate
	if share := p.LineRate / float64(sharing); share < rate {
		rate = share
	}
	wire := float64(t.WireBytes) / rate
	stack := float64(t.Packets) * p.PerPacketTime
	if stack > wire {
		return stack
	}
	return wire
}

// SumTime returns the time to sum-reduce n bytes of float32 data once.
func (p Params) SumTime(n int64) float64 { return float64(n) / p.SumRate }

// Exchange is a timed breakdown of one gradient/weight exchange.
type Exchange struct {
	Transfer float64 // serialization + stack time on the critical path
	Sum      float64 // summation time on the critical path
	Latency  float64 // propagation on the critical path
}

// Total returns the critical-path exchange time.
func (e Exchange) Total() float64 { return e.Transfer + e.Sum + e.Latency }

// Strategy names one gradient-exchange strategy at one scale. Name is a
// train.Algorithm.String() name: "worker-aggregator", "ring",
// "hierarchical-tree", "hierarchical-ring" or "switch".
type Strategy struct {
	Name       string
	Workers    int
	ModelBytes int64
	GroupSize  int // workers per group; hierarchical strategies only
	// Gradient packetizes a gradient-carrying message of the given raw
	// size (Plain, or NICCompressed below a compressing NIC); nil means
	// Plain.
	Gradient func(rawBytes int64) Traffic
}

// Exchange simulates one iteration of strategy s. It is the one statement
// of what each strategy puts on the wire: which legs carry gradients and
// take s.Gradient (the WA up leg, every ring block, the hierarchy's group
// and leader legs, the switch's per-port streams), which carry weights or
// reduced results and always travel Plain (the WA broadcast, the
// hierarchy's result legs — lossy compression is unsafe there, Fig. 4),
// and how the model is blocked (RingBlockBytes per ring level).
func (p Params) Exchange(s Strategy) (Exchange, error) {
	grad := s.Gradient
	if grad == nil {
		grad = Plain
	}
	n := s.ModelBytes
	switch s.Name {
	case "worker-aggregator":
		return p.WorkerAggregator(s.Workers, n, grad(n), Plain(n)), nil
	case "ring":
		return p.Ring(s.Workers, n, grad(RingBlockBytes(n, s.Workers))), nil
	case "switch":
		return p.SwitchAllReduce(s.Workers, n, grad), nil
	case "hierarchical-tree", "hierarchical-ring":
		g := s.GroupSize
		if g < 2 || s.Workers%g != 0 {
			return Exchange{}, fmt.Errorf("netsim: group size %d does not divide %d workers into groups of >= 2", g, s.Workers)
		}
		groups := s.Workers / g
		tree := s.Name == "hierarchical-tree"
		leader := grad(n)
		if !tree {
			leader = grad(RingBlockBytes(n, groups))
		}
		return p.Hierarchical(groups, g, n, tree, grad(RingBlockBytes(n, g)), leader, Plain(n)), nil
	}
	return Exchange{}, fmt.Errorf("netsim: unknown strategy %q", s.Name)
}

// WorkerAggregator simulates one iteration of the conventional exchange
// (paper Fig. 2) with p workers and one aggregator: all workers send their
// gradient (gradUp traffic each) concurrently into the aggregator's link,
// the aggregator sums p vectors of modelBytes, then broadcasts the updated
// weights (weightDown traffic each) from its single uplink.
func (p Params) WorkerAggregator(workers int, modelBytes int64, gradUp, weightDown Traffic) Exchange {
	if workers < 1 {
		return Exchange{}
	}
	// Incast: p streams share the aggregator's downlink.
	up := p.StreamTime(gradUp, workers)
	// Aggregation of p vectors: (p-1) pairwise adds over modelBytes.
	sum := float64(workers-1) * p.SumTime(modelBytes)
	// Broadcast: p streams share the aggregator's uplink.
	down := p.StreamTime(weightDown, workers)
	return Exchange{
		Transfer: up + down,
		Sum:      sum,
		Latency:  4 * p.Latency, // two worker↔switch↔aggregator traversals
	}
}

// Broadcast returns the time for one node to send t to fanout receivers
// concurrently: its uplink is the shared resource.
func (p Params) Broadcast(t Traffic, fanout int) float64 {
	if fanout < 1 {
		return 0
	}
	// Aggregate limited by the uplink; each stream also bounded by the
	// per-stream ceiling and the per-packet floor.
	aggregate := float64(int64(fanout)*t.WireBytes) / p.LineRate
	perStream := p.StreamTime(t, fanout)
	if perStream > aggregate {
		return perStream
	}
	return aggregate
}

// Hierarchical simulates one exchange of the paper's Fig. 1b/1c
// organizations: groups×groupSize workers run intra-group rings in
// parallel (level 1), the group leaders exchange the group sums (level 2
// — an aggregator tree when tree is true, a ring of leaders otherwise),
// and each leader broadcasts the global result inside its group (level 3).
// blockTraffic is one intra-group ring block; leaderTraffic is the whole
// model as sent between leaders (or leader blocks for the leader ring);
// resultDown is the whole model sent down to group members.
func (p Params) Hierarchical(groups, groupSize int, modelBytes int64, tree bool,
	blockTraffic, leaderTraffic, resultDown Traffic) Exchange {

	level1 := p.Ring(groupSize, modelBytes, blockTraffic)
	var level2 Exchange
	if tree {
		level2 = p.WorkerAggregator(groups, modelBytes, leaderTraffic, resultDown)
	} else {
		level2 = p.Ring(groups, modelBytes, leaderTraffic)
	}
	level3 := p.Broadcast(resultDown, groupSize-1)
	return Exchange{
		Transfer: level1.Transfer + level2.Transfer + level3,
		Sum:      level1.Sum + level2.Sum,
		Latency:  level1.Latency + level2.Latency + 2*p.Latency,
	}
}

// Ring simulates one iteration of the gradient-centric exchange
// (Algorithm 1) with p workers: 2(p−1) pipeline steps, each moving one
// block of blockTraffic over every ring link simultaneously (one stream
// per link), with a per-block sum in the first p−1 steps.
func (p Params) Ring(workers int, modelBytes int64, blockTraffic Traffic) Exchange {
	if workers < 2 {
		return Exchange{}
	}
	// Exact per-block sizing: when the model does not divide evenly, the
	// block partition (ring.BlockBounds) gives the first
	// modelBytes mod workers blocks one extra byte. Every reduce-scatter
	// step sums the largest block somewhere on the ring, so the lockstep
	// critical path carries ceil(modelBytes/workers) per step — truncating
	// division would silently drop the remainder bytes from the summation
	// term (and disagree with the blockTraffic the caller packetized).
	step := p.StreamTime(blockTraffic, 1)
	steps := float64(2 * (workers - 1))
	sum := float64(workers-1) * p.SumTime(RingBlockBytes(modelBytes, workers))
	return Exchange{
		Transfer: steps * step,
		Sum:      sum,
		Latency:  steps * 2 * p.Latency, // each step crosses the switch
	}
}

// RingBlockBytes returns the largest ring-block size of a modelBytes
// gradient split across workers — ceil division, matching the byte
// footprint of the partition the real collective uses (the first
// modelBytes mod workers blocks carry one extra byte). It is the block
// size on the lockstep critical path, and the size callers should
// packetize as blockTraffic.
func RingBlockBytes(modelBytes int64, workers int) int64 {
	if workers < 1 {
		return modelBytes
	}
	return (modelBytes + int64(workers) - 1) / int64(workers)
}

// SwitchAllReduce simulates one in-network all-reduce (NetReduce-style,
// arXiv:2009.09736): every worker streams its modelBytes gradient up its
// own dedicated switch port in chunks of at most SwitchMemBytes, the
// switch's per-port reduction unit combines each chunk at SwitchSumRate,
// and the combined chunk is multicast back down every port (each egress
// port carries exactly one copy — no incast on either leg, which is what
// distinguishes this from the worker-aggregator exchange). Consecutive
// chunks pipeline through the upload/combine/multicast stages, so the
// steady state runs at the slowest stage. traffic maps a chunk's raw
// byte count to wire traffic (Plain, or NICCompressed for a compressing
// NIC below the switch); nil means Plain.
func (p Params) SwitchAllReduce(workers int, modelBytes int64, traffic func(int64) Traffic) Exchange {
	if workers < 1 || modelBytes <= 0 {
		return Exchange{}
	}
	if traffic == nil {
		traffic = Plain
	}
	mem := p.SwitchMem()
	chunks := (modelBytes + mem - 1) / mem
	tail := modelBytes - (chunks-1)*mem

	stage := func(bytes int64) (u, s float64) {
		return p.StreamTime(traffic(bytes), 1), float64(bytes) / p.SwitchRate()
	}
	uFull, sFull := stage(mem)
	uTail, sTail := stage(tail)
	if chunks == 1 {
		uFull, sFull = uTail, sTail
	}

	// Fill-and-drain pipeline over the three stages (upload, combine,
	// multicast; multicast time equals upload time — one stream per port
	// in both directions): first chunk's upload, then chunks 2..K at the
	// bottleneck stage, then the last chunk's combine and multicast.
	ex := Exchange{
		Transfer: uFull + uTail,
		Sum:      sTail,
		Latency:  2 * p.Latency, // one worker→switch→worker traversal
	}
	for k := int64(1); k < chunks; k++ {
		u, s := uFull, sFull
		if k == chunks-1 {
			u, s = uTail, sTail
		}
		// Steady-state slot: attribute it to the stage that gates it.
		if s >= u {
			ex.Sum += s
		} else {
			ex.Transfer += u
		}
	}
	return ex
}
