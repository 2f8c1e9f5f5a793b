package main

// micro.go times each layer's public functions from outside, at the sizes
// the five workloads use. Every measurement is a fixed number of calls; the
// reported value is the median call (the minimum is kept in the results
// file). Input vectors come from gradgen with the run seed, shaped like the
// paper's Table III HDC row at bound 2^-10.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"inceptionn/internal/bitio"
	"inceptionn/internal/comm"
	"inceptionn/internal/data"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/gradgen"
	"inceptionn/internal/hierarchy"
	"inceptionn/internal/models"
	"inceptionn/internal/mpi"
	"inceptionn/internal/nic"
	"inceptionn/internal/nn"
	"inceptionn/internal/opt"
	"inceptionn/internal/ring"
	"inceptionn/internal/tcpfabric"
	"inceptionn/internal/tensor"
)

const (
	hdcParams     = 1149010 // gradient length of the HDC workloads
	alexnetParams = 156074  // gradient length of alexnet_switch_inproc
	chunkFloats   = 4096    // ring chunk of hdc_ring_inproc_comp_chunk, switch chunk of alexnet_switch_inproc
	hdcHidden     = 500
)

// micro holds the microbenchmarks' shared inputs and results.
type micro struct {
	seed  int64
	quick bool      // one call per measurement: exercises the path, measures nothing
	vec   []float32 // one HDC-sized gradient vector
	v     values    // median per metric
	min   values    // fastest call per metric
	ops   *ops
	err   error // first harness or transport error; the run is void
}

// calls times n calls of f, running prep (untimed) before each.
func calls(n int, prep, f func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		f()
		out[i] = time.Since(t0).Seconds()
	}
	return out
}

// mallocs returns how many heap objects f allocates, process-wide.
func mallocs(f func()) (objects, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// rate records a throughput metric: units of work per call ÷ seconds.
func (m *micro) rate(name string, perCall float64, secs []float64) {
	m.v[name] = perCall / median(secs)
	m.min[name] = perCall / minOf(secs) // the fastest call is the highest rate
}

// latency records a time-per-call metric in the given scale (1e3 = ms, 1e6 = us).
func (m *micro) latency(name string, scale float64, secs []float64) {
	m.v[name] = median(secs) * scale
	m.min[name] = minOf(secs) * scale
}

// count records a metric that is a tally, not a timing.
func (m *micro) count(name string, x float64) {
	m.v[name], m.min[name] = x, x
}

func (m *micro) fail(err error) {
	if err != nil && m.err == nil {
		m.err = err
	}
}

// n is how many calls a measurement sized for full calls makes.
func (m *micro) n(full int) int {
	if m.quick {
		return 1
	}
	return full
}

func runMicro(seed int64, quick bool, o *ops) (*micro, error) {
	g, err := gradgen.FromTableIII(boundExp, 0.920, 0.065, 0.015, 0.000, seed)
	if err != nil {
		return nil, err
	}
	m := &micro{seed: seed, quick: quick, vec: g.Stream(hdcParams), v: values{}, min: values{}, ops: o}
	m.tensor()
	m.nn()
	m.data()
	m.codec()
	m.nic()
	m.inproc()
	m.tcp()
	m.collectives()
	m.checkpoint()
	return m, m.err
}

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.FillRandn(rng, 1)
	return t
}

func (m *micro) tensor() {
	rng := rand.New(rand.NewSource(m.seed))
	const b = 16
	// The HDC hidden layer at batch 16: forward, weight gradient, input gradient.
	x, w, dout := randTensor(rng, b, hdcHidden), randTensor(rng, hdcHidden, hdcHidden), randTensor(rng, b, hdcHidden)
	y, gw, dx := tensor.New(b, hdcHidden), tensor.New(hdcHidden, hdcHidden), tensor.New(b, hdcHidden)
	gflop := 2.0 * b * hdcHidden * hdcHidden / 1e9
	m.rate("tensor.matmul_dense_gflops", gflop, calls(m.n(12), nil, func() { tensor.MatMul(y, x, w) }))
	m.rate("tensor.matmul_transa_gflops", gflop, calls(m.n(12), nil, func() { tensor.MatMulTransA(gw, x, dout) }))
	m.rate("tensor.matmul_transb_gflops", gflop, calls(m.n(12), nil, func() { tensor.MatMulTransB(dx, dout, w) }))
	// mini-AlexNet conv2 on one sample: 16 channels of 16×16, 32 filters of 3×3.
	img, filt := randTensor(rng, 16, 16, 16), randTensor(rng, 32, 16*9)
	cols, out := tensor.New(16*9, 16*16), tensor.New(32, 16*16)
	m.rate("tensor.im2col_mb_s", float64(4*cols.Len())/1e6, calls(m.n(40), nil, func() { tensor.Im2Col(cols, img, 3, 3, 1, 1) }))
	m.rate("tensor.matmul_conv_gflops", 2.0*32*16*9*16*16/1e9, calls(m.n(40), nil, func() { tensor.MatMul(out, filt, cols) }))
}

// step is one local gradient: zero, forward, loss, backward.
func step(net *nn.Network, b data.Batch) {
	net.ZeroGrads()
	logits := net.Forward(b.X, true)
	var sce nn.SoftmaxCrossEntropy
	_, dlogits := sce.Loss(logits, b.Labels)
	net.Backward(dlogits)
}

func firstBatch(ds data.Dataset, n int) data.Batch {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return data.MakeBatch(ds, idx)
}

func (m *micro) nn() {
	hdc := models.NewHDC(rand.New(rand.NewSource(m.seed)))
	digits := data.NewDigits(trainSize, m.seed)
	b16, b4 := firstBatch(digits, 16), firstBatch(digits, 4)
	m.latency("nn.hdc_step_ms_b16", 1e3, calls(m.n(5), nil, func() { step(hdc, b16) }))
	m.latency("nn.hdc_step_ms_b4", 1e3, calls(m.n(8), nil, func() { step(hdc, b4) }))
	sgd := opt.NewSGD(learnRate, momentum, 0)
	m.latency("opt.sgd_step_ms", 1e3, calls(m.n(10), nil, func() { sgd.Step(hdc.Params()) }))

	alex := models.NewMiniAlexNet(rand.New(rand.NewSource(m.seed)))
	img16 := firstBatch(data.NewImages(trainSize, m.seed), 16)
	m.latency("nn.alexnet_step_ms_b16", 1e3, calls(m.n(5), nil, func() { step(alex, img16) }))
	objects, _ := mallocs(func() { step(alex, img16) })
	m.count("nn.alexnet_step_allocs", objects)

	// train.RunSingle has no per-iteration hook, so an iteration is the
	// difference between a 4-iteration and a 1-iteration run.
	single := func(iters int) float64 {
		return calls(1, nil, func() { runSingleHDC(m.seed, 16, iters) })[0]
	}
	var per []float64
	for i := 0; i < m.n(3); i++ {
		per = append(per, (single(4)-single(1))/3)
	}
	m.latency("train.single_iter_ms_hdc_b16", 1e3, per)
}

func (m *micro) data() {
	idx := make([]int, 16)
	rng := rand.New(rand.NewSource(m.seed))
	pick := func() {
		for i := range idx {
			idx[i] = rng.Intn(trainSize)
		}
	}
	digits, images := data.NewDigits(trainSize, m.seed), data.NewImages(trainSize, m.seed)
	m.latency("data.digits_batch_us", 1e6, calls(m.n(30), pick, func() { data.MakeBatch(digits, idx) }))
	m.latency("data.images_batch_us", 1e6, calls(m.n(30), pick, func() { data.MakeBatch(images, idx) }))
}

func (m *micro) codec() {
	mb := func(floats int) float64 { return float64(4*floats) / 1e6 }
	// Whole vector, as a whole-block codec would see it.
	w := bitio.NewWriter(len(m.vec))
	m.rate("fpcodec.compress_mb_s", mb(len(m.vec)), calls(m.n(5), w.Reset, func() { fpcodec.CompressStream(w, m.vec, codecBound) }))
	dec := make([]float32, len(m.vec))
	m.rate("fpcodec.decompress_mb_s", mb(len(m.vec)), calls(m.n(5), nil, func() {
		m.fail(fpcodec.DecompressStream(bitio.NewReader(w.Bytes(), w.Len()), dec, codecBound))
	}))
	m.count("fpcodec.ratio", fpcodec.Ratio(m.vec, codecBound))
	worst := 0.0
	for i, x := range m.vec {
		worst = math.Max(worst, math.Abs(float64(x)-float64(dec[i])))
	}
	m.ops.compare(worst <= codecBound.MaxError(), "fpcodec: roundtrip error %g exceeds bound %g", worst, codecBound.MaxError())

	// 4096-float calls, as the chunked ring makes them; a different chunk
	// each call so the input is not cache-resident by construction.
	n := m.n(280)
	chunk := func(i int) []float32 { return m.vec[i*chunkFloats : (i+1)*chunkFloats] }
	streams := make([]*bitio.Writer, n)
	for i := range streams {
		streams[i] = bitio.NewWriter(chunkFloats) // a compressed chunk is well under a byte per float
	}
	i := 0
	encObjects, _ := mallocs(func() {
		m.rate("fpcodec.compress_chunk_mb_s", mb(chunkFloats), calls(n, nil, func() {
			fpcodec.CompressStream(streams[i], chunk(i), codecBound)
			i++
		}))
	})
	i = 0
	out := make([]float32, chunkFloats)
	decObjects, _ := mallocs(func() {
		m.rate("fpcodec.decompress_chunk_mb_s", mb(chunkFloats), calls(n, nil, func() {
			m.fail(fpcodec.DecompressStream(bitio.NewReader(streams[i].Bytes(), streams[i].Len()), out, codecBound))
			i++
		}))
	})
	m.count("fpcodec.allocs_per_call", (encObjects+decObjects)/float64(2*n))

	proc := comm.CodecProcessor{Bound: codecBound}
	i = 0
	m.rate("comm.codec_process_mb_s", mb(chunkFloats), calls(n, nil, func() { proc.Process(chunk(i), comm.ToSCompress); i++ }))

	// bitio alone: a million 10-bit fields, the codec's commonest width.
	const fields = 1 << 20
	bw := bitio.NewWriter(fields * 10 / 8)
	m.rate("bitio.write_mb_s", fields*10/8/1e6, calls(m.n(3), bw.Reset, func() {
		for k := 0; k < fields; k++ {
			bw.WriteBits(uint64(k), 10)
		}
	}))
	m.rate("bitio.read_mb_s", fields*10/8/1e6, calls(m.n(3), nil, func() {
		r := bitio.NewReader(bw.Bytes(), bw.Len())
		for k := 0; k < fields; k++ {
			if _, err := r.ReadBits(10); err != nil {
				m.fail(err)
				return
			}
		}
	}))
}

// block is one ring block of the HDC gradient: what one frame carries.
func (m *micro) block() []float32 { return m.vec[:hdcParams/workers] }

func (m *micro) nic() {
	blk := m.block()
	mb := float64(4*len(blk)) / 1e6
	ce, de := nic.NewCompressionEngine(codecBound), nic.NewDecompressionEngine(codecBound)
	var stream []byte
	var bits int
	n := m.n(5)
	encObjects, _ := mallocs(func() {
		m.rate("nic.compress_mb_s", mb, calls(n, nil, func() { stream, bits = ce.CompressPayload(blk) }))
	})
	stream = append([]byte(nil), stream...) // the engine reuses its buffer
	var got []float32
	decObjects, _ := mallocs(func() {
		m.rate("nic.decompress_mb_s", mb, calls(n, nil, func() {
			var err error
			got, err = de.DecompressPayload(stream, bits, len(blk))
			m.fail(err)
		}))
	})
	m.count("nic.allocs_per_payload", (encObjects+decObjects)/float64(n))

	// The cycle model and the software codec are two implementations of
	// Algorithms 2-3: same bytes out, same floats back.
	w := bitio.NewWriter(len(blk))
	fpcodec.CompressStream(w, blk, codecBound)
	m.ops.compare(w.Len() == bits && string(w.Bytes()) == string(stream), "nic: %d bits differ from fpcodec's %d-bit stream", bits, w.Len())
	want := make([]float32, len(blk))
	m.fail(fpcodec.DecompressStream(bitio.NewReader(w.Bytes(), w.Len()), want, codecBound))
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = math.Float32bits(got[i]) == math.Float32bits(want[i])
	}
	m.ops.compare(same, "nic: decoded payload differs from fpcodec's")
}

// pingPong sends payload a→b and waits for it, n times, in one goroutine
// (sends are asynchronous in both fabrics).
func (m *micro) pingPong(a, b comm.CtxPeer, payload []float32, tos uint8, n int, bothWays bool) []float64 {
	ctx := context.Background()
	tag := 0
	return calls(n, nil, func() {
		tag++
		m.fail(a.SendCtx(ctx, b.ID(), payload, tos, tag))
		_, err := b.RecvCtx(ctx, a.ID(), tag)
		m.fail(err)
		if bothWays {
			m.fail(b.SendCtx(ctx, a.ID(), payload, tos, tag))
			_, err = a.RecvCtx(ctx, b.ID(), tag)
			m.fail(err)
		}
	})
}

func (m *micro) inproc() {
	f := comm.NewFabric(2, nil)
	a, b := f.Endpoint(0), f.Endpoint(1)
	blk := m.block()
	m.rate("comm.sendrecv_mb_s", float64(4*len(blk))/1e6, m.pingPong(a, b, blk, 0, m.n(20), false))
	n := m.n(2000)
	objects, _ := mallocs(func() {
		m.latency("comm.sendrecv_small_us", 1e6, m.pingPong(a, b, blk[:8], 0, n, false))
	})
	m.count("comm.allocs_per_msg", objects/float64(n))
}

func (m *micro) tcp() {
	m.latency("tcpfabric.dial_ms", 1e3, calls(m.n(3), nil, func() {
		c, err := tcpfabric.NewCluster(workers, false, codecBound)
		if err != nil {
			m.fail(err)
			return
		}
		c.Close()
	}))

	blk := m.block()
	mb := float64(4*len(blk)) / 1e6
	plain, err := tcpfabric.NewCluster(2, false, codecBound)
	if err != nil {
		m.fail(err)
		return
	}
	defer plain.Close()
	frames := float64(m.n(10))
	objects, bytes := mallocs(func() {
		m.rate("tcpfabric.wire_mb_s", mb, m.pingPong(plain.Node(0), plain.Node(1), blk, 0, int(frames), false))
	})
	m.count("tcpfabric.allocs_per_frame", objects/frames)
	m.count("tcpfabric.alloc_kb_per_frame", bytes/frames/1e3)
	m.latency("tcpfabric.small_rtt_us", 1e6, m.pingPong(plain.Node(0), plain.Node(1), blk[:8], 0, m.n(200), true))

	comp, err := tcpfabric.NewCluster(2, true, codecBound)
	if err != nil {
		m.fail(err)
		return
	}
	defer comp.Close()
	m.rate("tcpfabric.wire_comp_mb_s", mb, m.pingPong(comp.Node(0), comp.Node(1), blk, comm.ToSCompress, m.n(6), false))
}

// onNodes runs body on n goroutines, one per fabric node, and returns how
// long the slowest took.
func (m *micro) onNodes(n int, body func(id int) error) float64 {
	var wg sync.WaitGroup
	errs := make([]error, n)
	t0 := time.Now()
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = body(id)
		}(id)
	}
	wg.Wait()
	d := time.Since(t0).Seconds()
	for _, err := range errs {
		m.fail(err)
	}
	return d
}

// collective times n calls of a collective over `nodes` goroutines. Each
// worker's vector is the gradgen stream rotated by a different offset,
// restored before every call (a sum grows the values, and the codec's cost
// depends on them).
func (m *micro) collective(name string, n, nodes, length int, body func(id int, vec []float32) error) {
	work := make([][]float32, workers)
	for id := range work {
		work[id] = make([]float32, length)
	}
	restore := func() {
		for id, v := range work {
			off := id * 1009
			copy(v, m.vec[off:off+length])
		}
	}
	secs := make([]float64, m.n(n))
	for i := range secs {
		restore()
		secs[i] = m.onNodes(nodes, func(id int) error {
			var vec []float32
			if id < workers {
				vec = work[id]
			}
			return body(id, vec)
		})
	}
	m.latency(name, 1e3, secs)
}

func codecFinalize(b []float32) {
	for i, v := range b {
		b[i] = fpcodec.Roundtrip(v, codecBound)
	}
}

func (m *micro) collectives() {
	ctx := context.Background()
	// The vectors are rotated copies, so leave room for the largest offset.
	hdcLen := hdcParams - workers*1009

	ringOn := func(peer func(id int) comm.CtxPeer, tos uint8, finalize func([]float32), o ring.Options) func(int, []float32) error {
		return func(id int, vec []float32) error {
			return ring.AllReduceCtx(ctx, peer(id), vec, tos, finalize, o)
		}
	}
	plain := comm.NewFabric(workers, nil)
	plainPeer := func(id int) comm.CtxPeer { return plain.Endpoint(id) }
	m.collective("ring.allreduce_inproc_ms", 3, workers, hdcLen, ringOn(plainPeer, 0, nil, ring.Options{}))
	m.collective("ring.allreduce_inproc_chunk_ms", 3, workers, hdcLen, ringOn(plainPeer, 0, nil, ring.Options{ChunkSize: chunkFloats}))
	proc := comm.CodecProcessor{Bound: codecBound}
	coded := comm.NewFabric(workers, proc)
	finalize := func(b []float32) { out, _ := proc.Process(b, comm.ToSCompress); copy(b, out) }
	m.collective("ring.allreduce_inproc_comp_chunk_ms", 3, workers, hdcLen,
		ringOn(func(id int) comm.CtxPeer { return coded.Endpoint(id) }, comm.ToSCompress, finalize, ring.Options{ChunkSize: chunkFloats}))

	for _, c := range []struct {
		name     string
		compress bool
	}{{"ring.allreduce_tcp_ms", false}, {"ring.allreduce_tcp_comp_ms", true}} {
		cl, err := tcpfabric.NewCluster(workers, c.compress, codecBound)
		if err != nil {
			m.fail(err)
			return
		}
		var tos uint8
		var fin func([]float32)
		if c.compress {
			tos, fin = comm.ToSCompress, codecFinalize
		}
		m.collective(c.name, 3, workers, hdcLen, ringOn(func(id int) comm.CtxPeer { return cl.Node(id) }, tos, fin, ring.Options{}))
		cl.Close()
	}

	// Switch: four worker ports and the reduction unit at rank 4.
	sw := comm.NewFabric(workers+1, nil)
	swOpt := mpi.SwitchOptions{ChunkFloats: chunkFloats}
	m.collective("mpi.switch_allreduce_ms", 5, workers+1, alexnetParams, func(id int, vec []float32) error {
		c := mpi.World(sw, id)
		if id == workers {
			return c.SwitchServeCtx(ctx, alexnetParams, swOpt)
		}
		return c.AllReduceSwitchCtx(ctx, vec, workers, swOpt)
	})
	m.collective("mpi.allreduce_ms", 3, workers, hdcLen, func(id int, vec []float32) error {
		return mpi.World(plain, id).AllReduceCtx(ctx, vec)
	})

	// Worker-aggregator: the aggregator at node 4 sums and returns the sum.
	wa := comm.NewFabric(workers+1, nil)
	ids := []int{0, 1, 2, 3}
	m.collective("ring.wa_exchange_ms", 3, workers+1, hdcLen, func(id int, vec []float32) error {
		if id == workers {
			return ring.AggregateStepCtx(ctx, wa.Endpoint(id), ids, hdcLen, func(sum []float32) []float32 { return sum }, ring.Options{})
		}
		_, err := ring.WorkerExchangeCtx(ctx, wa.Endpoint(id), workers, vec, 0)
		return err
	})

	for _, c := range []struct {
		name string
		mode hierarchy.Mode
	}{{"hierarchy.tree_allreduce_ms", hierarchy.ModeAggregatorTree}, {"hierarchy.ring_allreduce_ms", hierarchy.ModeRingOfLeaders}} {
		topo := hierarchy.Topology{Workers: workers, GroupSize: 2, Mode: c.mode}
		if err := topo.Validate(); err != nil {
			m.fail(err)
			return
		}
		hf := comm.NewFabric(topo.FabricSize(), nil)
		m.collective(c.name, 3, topo.FabricSize(), hdcLen, func(id int, vec []float32) error {
			if id >= workers {
				return hierarchy.RunAggregatorCtx(ctx, topo, hf.Endpoint(id), hdcLen, ring.Options{})
			}
			return hierarchy.AllReduceCtx(ctx, topo, hf.Endpoint(id), vec, 0, nil, ring.Options{})
		})
	}
}

func (m *micro) checkpoint() {
	var write, restore []float64
	var size int
	for i := 0; i < m.n(3); i++ {
		n, w, r, err := checkpointRoundTrip(m.vec)
		if err != nil {
			m.fail(fmt.Errorf("perf: checkpoint: %w", err))
			return
		}
		size, write, restore = n, append(write, w.Seconds()), append(restore, r.Seconds())
	}
	m.rate("train.checkpoint_write_mb_s", float64(size)/1e6, write)
	m.rate("train.checkpoint_restore_mb_s", float64(size)/1e6, restore)
}
