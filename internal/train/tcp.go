package train

import (
	"inceptionn/internal/data"
	"inceptionn/internal/fpcodec"
)

// RunRingTCP trains with the gradient-centric ring algorithm over genuine
// loopback TCP sockets (internal/tcpfabric): every gradient byte really
// crosses a socket, compressed by the NIC engine model when o.Compress is
// set. Options.Processor is ignored — the TCP fabric embeds its own
// engines; bound selects their error bound.
//
// The exchange runs on the fault-tolerant path: o.StepTimeout bounds each
// ring hop, o.Chaos injects deterministic transport faults, and the first
// worker error (timeout, exhausted retries, crashed node) aborts the run
// and is returned instead of panicking the process.
func RunRingTCP(build Builder, trainDS, testDS data.Dataset, iters int, o Options, bound fpcodec.Bound) (Result, error) {
	o.Algo = Ring
	return runTCP(build, trainDS, testDS, iters, o, bound)
}

// RunSwitchTCP trains with the in-network switch collective over genuine
// loopback TCP sockets: node o.Workers is the switch's reduction unit,
// and as in RunRingTCP the fabric's own engines (error bound: bound)
// replace Options.Processor.
//
// o.StepTimeout bounds each protocol step, o.Chaos injects deterministic
// transport faults, and o.SwitchFallback makes the run survive the
// switch node's death by falling back to the ring collective mid-run,
// bit-exact with an uninterrupted ring run (see switchheal.go).
func RunSwitchTCP(build Builder, trainDS, testDS data.Dataset, iters int, o Options, bound fpcodec.Bound) (Result, error) {
	o.Algo = SwitchReduce
	return runTCP(build, trainDS, testDS, iters, o, bound)
}

// runTCP is Run over the loopback-socket data plane.
func runTCP(build Builder, trainDS, testDS data.Dataset, iters int, o Options, bound fpcodec.Bound) (Result, error) {
	c, err := o.prepare(true, false)
	if err != nil {
		return Result{}, err
	}
	plane, err := newTCPPlane(c.nodes(o.Workers), o, bound)
	if err != nil {
		return Result{}, err
	}
	return runFixed(plane, c, build, trainDS, testDS, iters, o, nil)
}
