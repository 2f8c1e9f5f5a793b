package main

import "math"

// workload is one fixed training configuration. Names are final: later
// issues cite them.
type workload struct {
	name string
	why  string // one line; BENCHMARK.json carries the same text

	model       string // "hdc" (1,149,010 params) or "alexnet" (mini-AlexNet, 156,074 params)
	batch       int    // per node
	tcp         bool   // tcpfabric loopback instead of the in-process comm.Fabric
	viaSwitch   bool   // mpi switch collective instead of the ring
	ringChunk   int    // floats per pipelined ring chunk; 0 = whole block
	switchChunk int    // floats per switch chunk
	compress    bool   // fpcodec stream codec in process, nic burst engines over TCP

	// Iteration counts per repeat at refSeconds. They are counts, never a
	// time limit: the cost of a compressed iteration depends on how far
	// training has converged, so only a fixed count is comparable.
	warmup, timed int
}

// refSeconds is the -seconds value the counts below are sized for: the
// timed regions of a workload's three repeats add up to about this long on
// the 2-core reference box. -seconds scales every count by seconds/refSeconds.
const refSeconds = 12

// minTimed is the floor on timed iterations per repeat; below it the
// median and the allocation averages are too coarse.
const minTimed = 30

// repeats is how many times a workload runs from iteration 0 in a fresh
// fabric; a reported value is the median over them.
const repeats = 3

var workloads = []workload{
	{
		name:  "hdc_ring_inproc",
		why:   "dense tensor/nn kernels do most of the work, codec and tcpfabric none: a MatMul change shows here, a codec or wire change must not",
		model: "hdc", batch: 16,
		warmup: 5, timed: 34,
	},
	{
		name:  "hdc_ring_tcp",
		why:   "small batch puts tcpfabric framing, CRC, ARQ and per-frame allocation near half the iteration, codec idle: a zero-copy wire change shows here",
		model: "hdc", batch: 4, tcp: true,
		warmup: 5, timed: 40,
	},
	{
		name:  "hdc_ring_tcp_comp",
		why:   "the paper's INC+C: the nic burst engines dominate, frames are ~6x smaller, spurious retransmits occur: codec and ARQ changes show here",
		model: "hdc", batch: 4, tcp: true, compress: true,
		warmup: 5, timed: 30,
	},
	{
		name:  "hdc_ring_inproc_comp_chunk",
		why:   "sharded fpcodec stream codec on 4096-float chunks where per-call set-up cost matters: a bulk codec win that adds per-call cost loses here",
		model: "hdc", batch: 4, ringChunk: 4096, compress: true,
		warmup: 5, timed: 30,
	},
	{
		name:  "alexnet_switch_inproc",
		why:   "im2col/conv tensor shapes and many small messages through the mpi switch: a dense-only kernel tile or ring-only change that hurts conv or mpi shows here",
		model: "alexnet", batch: 16, viaSwitch: true, switchChunk: 4096,
		warmup: 5, timed: 30,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled returns w with its iteration counts sized for seconds.
func (w workload) scaled(seconds int) workload {
	f := float64(seconds) / refSeconds
	w.warmup = int(math.Max(1, math.Round(float64(w.warmup)*f)))
	w.timed = int(math.Max(minTimed, math.Round(float64(w.timed)*f)))
	return w
}

// reference returns the configuration w's final weights must equal bit for
// bit: an in-process whole-block ring run of the same model, batch and
// compression. (Switch + compression is not bit-identical to the ring,
// which is why alexnet_switch_inproc is plain.)
func (w workload) reference() workload {
	r := w
	r.name = w.name + "/reference"
	r.tcp, r.viaSwitch, r.ringChunk, r.switchChunk = false, false, 0, 0
	return r
}
