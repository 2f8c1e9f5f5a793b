package train

import (
	"context"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/fault"
	"inceptionn/internal/tcpfabric"
)

// dataPlane is the wire under a run: n nodes that exchange float32
// vectors, either over the in-process comm.Fabric (fabric set) or over
// loopback TCP sockets (cluster set). It owns everything a runner needs
// from the wire and nothing about what is sent over it: each node's peer,
// the owner-block finalizer matching the wire's codec, the anomaly
// watcher, the traffic and receive-wait totals, and Close.
type dataPlane struct {
	n       int
	fabric  *comm.Fabric
	cluster *tcpfabric.Cluster
	// finalize is the owner-block finalizer for the exchange: with
	// compression enabled, a node's own fully aggregated block is passed
	// through the same codec path every other replica observes (Algorithm
	// 1's local compress/decompress, lines 6 and 20), keeping all model
	// replicas bit-identical. Nil when the wire is lossless.
	finalize func([]float32)
}

// newPlane builds the n-node plane o.Plane selects.
func newPlane(n int, o Options) (*dataPlane, error) {
	if o.Plane == TCP {
		return newTCPPlane(n, o)
	}
	return newFabricPlane(n, o), nil
}

// newFabricPlane builds the in-process plane: o.Processor models the NIC
// datapath.
func newFabricPlane(n int, o Options) *dataPlane {
	p := &dataPlane{n: n, fabric: comm.NewFabric(n, o.Processor)}
	p.fabric.SetRecorder(o.Obs)
	if o.Compress && o.Processor != nil {
		p.finalize = finalizer(o.Processor)
	}
	return p
}

// finalizer is the owner-block finalizer of a compressed exchange: proc's
// codec run over the block in place, on either plane.
func finalizer(proc comm.WireProcessor) func([]float32) {
	return func(b []float32) { comm.ProcessInto(proc, b, b, comm.ToSCompress) }
}

// newTCPPlane builds the loopback-socket plane: the TCP fabric embeds its
// own NIC engines at error bound o.Bound, the finalizer applies the same
// codec, and o.Chaos faults the fabric's frames.
func newTCPPlane(n int, o Options) (*dataPlane, error) {
	p := &dataPlane{n: n}
	var inj *fault.Injector
	if o.Chaos != nil {
		inj = fault.NewInjector(n, *o.Chaos)
	}
	var err error
	p.cluster, err = tcpfabric.NewClusterWithOptions(n, tcpfabric.ClusterOptions{
		Compress: o.Compress, Bound: o.Bound, Chaos: inj, Obs: o.Obs,
	})
	if err != nil {
		return nil, err
	}
	if o.Compress {
		// The in-tree codec's group kernel is bit-exact with the engines.
		p.finalize = finalizer(comm.CodecProcessor{Bound: o.Bound})
	}
	return p, nil
}

// peer returns node id's endpoint.
func (p *dataPlane) peer(id int) comm.CtxPeer {
	if p.cluster != nil {
		return p.cluster.Node(id)
	}
	return p.fabric.Endpoint(id)
}

// watch starts the anomaly watcher: handle receives transport-level
// failures that no exchange blocks on directly — a frame the receiver
// cannot deliver (a CRC, codec or sequence error wrapping
// fault.ErrBadFrame), a torn frame, stream desync — which must end the run
// with their cause rather than leave a collective waiting out its step
// deadline, or forever when it has none.
// handle gets each node's first anomaly, after which that node's watcher
// stops; everything stops with ctx. Only the TCP fabric reports anomalies
// out of band (the in-process peers return theirs from the failing call).
func (p *dataPlane) watch(ctx context.Context, handle func(id int, err error)) {
	if p.cluster == nil {
		return
	}
	for id := 0; id < p.n; id++ {
		go func(id int, errCh <-chan error) {
			select {
			case err := <-errCh:
				handle(id, err)
			case <-ctx.Done():
			}
		}(id, p.cluster.Node(id).Errors())
	}
}

// traffic returns the run's totals: payload bytes before the codec, bytes
// on the wire, and the time receivers sat blocked on their links (the
// straggler signal).
func (p *dataPlane) traffic() (raw, wire int64, recvWait time.Duration) {
	// Both fabrics keep one comm.LinkStats per directed node pair; the TCP
	// fabric's wire total is what its sockets carried, frame headers
	// included.
	var linkStats func(i, j int) *comm.LinkStats
	if p.cluster != nil {
		linkStats = func(i, j int) *comm.LinkStats { return p.cluster.Node(i).LinkStats(j) }
		for i := 0; i < p.n; i++ {
			wire += p.cluster.Node(i).SentBytes()
		}
	} else {
		linkStats = p.fabric.Stats
		wire = p.fabric.TotalWireBytes()
	}
	for i := 0; i < p.n; i++ {
		for j := 0; j < p.n; j++ {
			s := linkStats(i, j)
			raw += s.RawBytes.Load()
			recvWait += time.Duration(s.RecvWaitNanos.Load())
		}
	}
	return raw, wire, recvWait
}

// Close releases the plane's sockets (the in-process fabric holds none).
func (p *dataPlane) Close() {
	if p.cluster != nil {
		p.cluster.Close()
	}
}
