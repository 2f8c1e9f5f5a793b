package main

// trace.go is the traced run's instrument. The harness records its own
// spans, in memory, by decorating the interfaces it hands the program:
// data.Dataset.Sample, every nn.Layer's Forward/Backward and
// comm.WireProcessor.Process. Worker 0's hook-to-hook interval is the
// parent span. Nothing here reads a clock inside the program; spans inside
// the program (obs) are attached separately and reported beside these.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/data"
	"inceptionn/internal/nn"
	"inceptionn/internal/obs"
	"inceptionn/internal/tensor"
)

// Layers a harness span can belong to.
const (
	layerTrain = "train" // the parent: one hook-to-hook interval of worker 0
	layerData  = "data"
	layerNN    = "nn"
	layerCodec = "codec"

	// An nn span's op is one of these followed by "<index>.<layer type>".
	opForward  = "forward:"
	opBackward = "backward:"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	ID       int64  `json:"id"`
	Workload string `json:"workload"`
	// Replica is the worker the call ran on, or -1 where the decorated
	// interface does not say: the WireProcessor is one fabric-wide datapath
	// shared by every sender.
	Replica int    `json:"replica"`
	Iter    int    `json:"iter"`
	Layer   string `json:"layer"`
	Op      string `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Parent is the ID of the worker-0 iteration span this call ran inside,
	// or 0 for a call on another replica or outside any iteration.
	Parent int64 `json:"parent"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer collects spans in memory; they are written out when the benchmark
// ends.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span

	// gid[r] is the goroutine worker r trains on, learnt from the first
	// Sample call on r's shard; a wrapped network uses it to learn which
	// replica it is. 0 = not seen yet.
	gid     [workers]atomic.Int64
	shardLo [workers]int // first global sample index of each worker's shard
}

func newTracer(workload string, trainDS data.Dataset) *tracer {
	t := &tracer{workload: workload, epoch: time.Now(), spans: make([]span, 0, 1<<16)}
	// Ask the program itself how it shards a dataset, rather than assuming.
	probe := &indexProbe{Dataset: trainDS}
	buf := make([]float32, trainDS.FeatureLen())
	for r := 0; r < workers; r++ {
		data.NewPartition(probe, r, workers).Sample(0, buf)
		t.shardLo[r] = probe.last
	}
	return t
}

// indexProbe records the global index a Partition maps local index 0 to.
type indexProbe struct {
	data.Dataset
	last int
}

func (p *indexProbe) Sample(i int, x []float32) int {
	p.last = i
	return 0
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	s.ID = int64(len(t.spans) + 1)
	s.Workload = t.workload
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// replicaOfIndex returns the worker whose shard holds global sample i.
func (t *tracer) replicaOfIndex(i int) int {
	r := sort.Search(workers, func(r int) bool { return t.shardLo[r] > i }) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// replicaOfGoroutine returns the worker training on the calling goroutine,
// or -1 if the goroutine has not sampled its shard yet.
func (t *tracer) replicaOfGoroutine() int {
	g := goid()
	for r := range t.gid {
		if t.gid[r].Load() == g {
			return r
		}
	}
	return -1
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 18 [running]:"). The runtime offers no other way to tell
// which worker calls a decorated interface that carries no worker id; the
// harness calls this a handful of times per run, never per span.
func goid() int64 {
	var buf [64]byte
	fields := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	if len(fields) < 2 {
		return -1
	}
	id, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return -1
	}
	return id
}

// tracedDataset times Dataset.Sample.
type tracedDataset struct {
	data.Dataset
	t *tracer
}

func (d tracedDataset) Sample(i int, x []float32) int {
	r := d.t.replicaOfIndex(i)
	if d.t.gid[r].Load() == 0 {
		d.t.gid[r].Store(goid())
	}
	start := d.t.now()
	label := d.Dataset.Sample(i, x)
	d.t.add(span{Replica: r, Iter: -1, Layer: layerData, Op: "sample", StartNs: start, EndNs: d.t.now()})
	return label
}

// tracedLayer times one nn.Layer's Forward and Backward.
type tracedLayer struct {
	nn.Layer
	fwdOp, bwdOp string
	net          *tracedNet
}

// tracedNet is the state the layers of one wrapped network share.
type tracedNet struct {
	t       *tracer
	replica int // -1 until the first training-mode Forward
}

func (l tracedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		// The evaluation pass after the last iteration is not training work.
		return l.Layer.Forward(x, train)
	}
	if l.net.replica < 0 {
		l.net.replica = l.net.t.replicaOfGoroutine()
	}
	start := l.net.t.now()
	out := l.Layer.Forward(x, train)
	l.net.t.add(span{Replica: l.net.replica, Iter: -1, Layer: layerNN, Op: l.fwdOp, StartNs: start, EndNs: l.net.t.now()})
	return out
}

func (l tracedLayer) Backward(dout *tensor.Tensor) *tensor.Tensor {
	start := l.net.t.now()
	out := l.Layer.Backward(dout)
	l.net.t.add(span{Replica: l.net.replica, Iter: -1, Layer: layerNN, Op: l.bwdOp, StartNs: start, EndNs: l.net.t.now()})
	return out
}

// tracedProcessor times WireProcessor.Process on compress-tagged payloads.
type tracedProcessor struct {
	inner comm.WireProcessor
	t     *tracer
}

func (p tracedProcessor) Process(payload []float32, tos uint8) ([]float32, int64) {
	if tos != comm.ToSCompress {
		return p.inner.Process(payload, tos)
	}
	start := p.t.now()
	out, n := p.inner.Process(payload, tos)
	p.t.add(span{Replica: -1, Iter: -1, Layer: layerCodec, Op: "process", StartNs: start, EndNs: p.t.now()})
	return out, n
}

// wrapNetwork returns n with every layer timed.
func (t *tracer) wrapNetwork(n *nn.Network) *nn.Network {
	tn := &tracedNet{t: t, replica: -1}
	layers := make([]nn.Layer, len(n.Layers))
	for i, l := range n.Layers {
		name := fmt.Sprintf("%d.%s", i, reflect.TypeOf(l).Elem().Name())
		layers[i] = tracedLayer{Layer: l, fwdOp: opForward + name, bwdOp: opBackward + name, net: tn}
	}
	return nn.NewNetwork(layers...)
}

// addIterations records worker 0's hook-to-hook intervals of r as parent
// spans and hangs every worker-0 span that started inside one under it.
// Iteration i's span ends at hook i: it holds the exchange and update of
// iteration i-1 and the local gradient of iteration i. It returns the IDs
// of the parents inside the timed region, and how many worker-0 spans
// straddle a hook. Worker 0 calls its hook between two layer calls, so the
// count is 0 exactly when the replica attribution is right.
func (t *tracer) addIterations(r *repeat) (timed map[int64]bool, straddling int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type parent struct {
		id         int64
		start, end int64
		iter       int
	}
	var parents []parent
	timed = make(map[int64]bool)
	for i := 1; i < len(r.hooks); i++ {
		p := parent{
			id:    int64(len(t.spans) + 1),
			start: r.hooks[i-1].Sub(t.epoch).Nanoseconds(),
			end:   r.hooks[i].Sub(t.epoch).Nanoseconds(),
			iter:  i,
		}
		t.spans = append(t.spans, span{ID: p.id, Workload: t.workload, Replica: 0, Iter: i, Layer: layerTrain, Op: "iter", StartNs: p.start, EndNs: p.end})
		parents = append(parents, p)
		if i >= r.w.warmup {
			timed[p.id] = true
		}
	}
	for k := range t.spans {
		s := &t.spans[k]
		if s.Layer == layerTrain {
			continue
		}
		j := sort.Search(len(parents), func(j int) bool { return parents[j].end > s.StartNs })
		if j == len(parents) || parents[j].start > s.StartNs {
			continue // before the first hook or after the last
		}
		s.Iter = parents[j].iter
		if s.Replica == 0 {
			s.Parent = parents[j].id
			if s.EndNs > parents[j].end {
				straddling++
			}
		}
	}
	return timed, straddling
}

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other and may stick out of the parent.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := c.StartNs, c.EndNs
		if lo < parent.StartNs {
			lo = parent.StartNs
		}
		if hi > parent.EndNs {
			hi = parent.EndNs
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var covered, end int64
	end = parent.StartNs
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return parent.dur() - covered
}

// traceShares turns the spans of a traced repeat into the trace.* metrics.
// data and nn shares are worker 0's children over worker 0's iteration
// time. The codec share is the per-worker average, because a codec span
// cannot be pinned to a worker. share_rest is what is left of the parent:
// exchange, update and scheduling.
func (t *tracer) traceShares(timed map[int64]bool, timedIters int) values {
	t.mu.Lock()
	defer t.mu.Unlock()
	parents := make(map[int64]span)
	children := make(map[int64][]span)
	var lo, hi int64
	for _, s := range t.spans {
		if s.Layer == layerTrain && timed[s.ID] {
			parents[s.ID] = s
			if len(parents) == 1 || s.StartNs < lo {
				lo = s.StartNs
			}
			if s.EndNs > hi {
				hi = s.EndNs
			}
		}
	}
	var dataNs, fwdNs, bwdNs, codecNs, codecCalls int64
	for _, s := range t.spans {
		switch {
		case s.Layer == layerCodec:
			if s.StartNs >= lo && s.StartNs < hi {
				codecNs += s.dur()
				codecCalls++
			}
		case timed[s.Parent]:
			children[s.Parent] = append(children[s.Parent], s)
			switch {
			case s.Layer == layerData:
				dataNs += s.dur()
			case strings.HasPrefix(s.Op, opForward):
				fwdNs += s.dur()
			default:
				bwdNs += s.dur()
			}
		}
	}
	var totalNs, selfNs int64
	for id, p := range parents {
		totalNs += p.dur()
		selfNs += selfTime(p, children[id])
	}
	total := float64(totalNs)
	codec := float64(codecNs) / workers / total
	return values{
		"trace.share_data":           float64(dataNs) / total,
		"trace.share_nn_forward":     float64(fwdNs) / total,
		"trace.share_nn_backward":    float64(bwdNs) / total,
		"trace.share_codec":          codec,
		"trace.share_rest":           float64(selfNs)/total - codec,
		"trace.codec_calls_per_iter": float64(codecCalls) / float64(timedIters),
	}
}

// obsShares reads the program's own phase spans (obs.Recorder) over the
// timed region [from, to] of a traced repeat: each phase's time summed over
// the worker nodes as a share of workers × wall time. What no phase claims
// is the closure residual, obs.share_unattributed.
func obsShares(tr *obs.Tracer, trEpoch, from, to time.Time) values {
	lo, hi := from.Sub(trEpoch).Nanoseconds(), to.Sub(trEpoch).Nanoseconds()
	var byPhase [obs.NumPhases]int64
	for _, s := range tr.Snapshot() {
		if s.Node < workers && s.Start >= lo && s.Start < hi {
			byPhase[s.Phase] += s.Dur
		}
	}
	wall := float64(workers) * float64(hi-lo)
	v := values{}
	rest := 1.0
	for _, p := range []obs.Phase{obs.PhaseCompute, obs.PhaseCompress, obs.PhaseSend, obs.PhaseRecv, obs.PhaseReduce, obs.PhaseDecompress} {
		share := float64(byPhase[p]) / wall
		v["obs.share_"+p.String()] = share
		rest -= share
	}
	v["obs.share_unattributed"] = rest
	return v
}

// tracedRepeat is the one extra repeat of a workload that runs decorated,
// with the program's own obs.Recorder attached. Its timings are never used
// for an end-to-end number. The returned values include the helper key
// "traced.iter_s_p50" for the caller's overhead calculation.
func tracedRepeat(w workload, in inputs, c config, o *ops) (values, error) {
	t := newTracer(w.name, in.trainDS)
	reg := obs.NewRegistry()
	// Room for every phase span of a run: the chunked, compressed ring
	// records about 2,000 per iteration.
	otr := obs.NewTracer(1 << 19)
	otrEpoch := time.Now() // within a microsecond of the tracer's own epoch
	rec := obs.NewRecorder(reg, otr)

	r := runRepeat(w, in, time.Now(), decor{tracer: t, rec: rec})
	o.iterations(r)
	if r.err != nil {
		return nil, nil // counted as failed iterations
	}
	timed, straddling := t.addIterations(r)
	o.compare(straddling == 0, "%s: %d worker-0 spans straddle a worker-0 hook: replica attribution is wrong", w.name, straddling)
	v := t.traceShares(timed, w.timed)
	o.compare(v["trace.share_nn_forward"] > 0 && v["trace.share_nn_backward"] > 0 && v["trace.share_data"] > 0,
		"%s: a decorator recorded nothing: %v", w.name, v)
	for k, x := range obsShares(otr, otrEpoch, r.timedStart(), r.timedEnd()) {
		v[k] = x
	}
	v["traced.iter_s_p50"] = median(r.iterSeconds())

	// The transport's own counters. In process nothing is retransmitted and
	// the counters read 0; wire_overhead is payload bytes put on the wire,
	// retransmissions included, over the payload bytes of a clean run.
	iters := float64(len(r.hooks))
	v["tcpfabric.retransmits_per_iter"] = float64(rec.Counter("tcp_retransmits").Value()) / iters
	v["tcpfabric.nacks_per_iter"] = float64(rec.Counter("tcp_nacks").Value()) / iters
	v["tcpfabric.wire_overhead"] = float64(rec.Counter("wire_bytes_raw").Value()) / float64(r.res.rawBytes)

	return v, t.writeJSONL(filepath.Join(c.out, "trace_"+w.name+".jsonl"))
}

// writeJSONL writes the spans, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("perf: write %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("perf: write %s: %w", path, err)
	}
	return f.Close()
}
