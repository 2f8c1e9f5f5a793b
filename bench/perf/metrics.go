package main

// metric describes one reported number. The two tables below are the
// benchmark's vocabulary: BENCHMARK.json is generated from them (-manifest)
// and a test checks the two agree.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// perRun is true when the value comes from the workload's own training
	// runs and false for a microbenchmark, whose value does not depend on
	// the workload it is printed beside.
	perRun bool
}

// End-to-end metrics, reported for every workload with -trace 0. A bound is
// three times the widest interquartile spread `-sets 10` measured for the
// metric on any workload on the reference box, capped at the manifest's
// ceiling of 0.25 (see README, "Noise floor").
var endToEnd = []metric{
	{name: "iter_s_p50", unit: "s", better: "lower", bound: 0.25, perRun: true},
	{name: "samples_per_s", unit: "samples/s", better: "higher", bound: 0.25, perRun: true},
	{name: "wire_bytes_per_iter", unit: "bytes", better: "lower", bound: 0.09, perRun: true},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.11, perRun: true},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, perRun: true},
}

// Per-layer metrics, reported with -trace 1. They have no bound: they say
// where an end-to-end change came from, they do not gate.
var perLayer = []metric{
	// tensor / nn / opt / train: the dense compute path.
	{name: "tensor.matmul_dense_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "tensor.matmul_transa_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "tensor.matmul_transb_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "tensor.matmul_conv_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "tensor.im2col_mb_s", unit: "MB/s", better: "higher"},
	{name: "nn.hdc_step_ms_b16", unit: "ms", better: "lower"},
	{name: "nn.hdc_step_ms_b4", unit: "ms", better: "lower"},
	{name: "nn.alexnet_step_ms_b16", unit: "ms", better: "lower"},
	{name: "nn.alexnet_step_allocs", unit: "count", better: "lower"},
	{name: "opt.sgd_step_ms", unit: "ms", better: "lower"},
	{name: "train.single_iter_ms_hdc_b16", unit: "ms", better: "lower"},
	{name: "data.digits_batch_us", unit: "us", better: "lower"},
	{name: "data.images_batch_us", unit: "us", better: "lower"},
	// codec.
	{name: "fpcodec.compress_mb_s", unit: "MB/s", better: "higher"},
	{name: "fpcodec.decompress_mb_s", unit: "MB/s", better: "higher"},
	{name: "fpcodec.compress_chunk_mb_s", unit: "MB/s", better: "higher"},
	{name: "fpcodec.decompress_chunk_mb_s", unit: "MB/s", better: "higher"},
	{name: "fpcodec.allocs_per_call", unit: "count", better: "lower"},
	{name: "fpcodec.ratio", unit: "count", better: "higher"},
	{name: "comm.codec_process_mb_s", unit: "MB/s", better: "higher"},
	{name: "bitio.write_mb_s", unit: "MB/s", better: "higher"},
	{name: "bitio.read_mb_s", unit: "MB/s", better: "higher"},
	{name: "nic.compress_mb_s", unit: "MB/s", better: "higher"},
	{name: "nic.decompress_mb_s", unit: "MB/s", better: "higher"},
	{name: "nic.allocs_per_payload", unit: "count", better: "lower"},
	// wire.
	{name: "tcpfabric.wire_mb_s", unit: "MB/s", better: "higher"},
	{name: "tcpfabric.wire_comp_mb_s", unit: "MB/s", better: "higher"},
	{name: "tcpfabric.small_rtt_us", unit: "us", better: "lower"},
	{name: "tcpfabric.allocs_per_frame", unit: "count", better: "lower"},
	{name: "tcpfabric.alloc_kb_per_frame", unit: "KB", better: "lower"},
	{name: "tcpfabric.dial_ms", unit: "ms", better: "lower"},
	{name: "comm.sendrecv_mb_s", unit: "MB/s", better: "higher"},
	{name: "comm.sendrecv_small_us", unit: "us", better: "lower"},
	{name: "comm.allocs_per_msg", unit: "count", better: "lower"},
	// collectives.
	{name: "ring.allreduce_inproc_ms", unit: "ms", better: "lower"},
	{name: "ring.allreduce_inproc_chunk_ms", unit: "ms", better: "lower"},
	{name: "ring.allreduce_inproc_comp_chunk_ms", unit: "ms", better: "lower"},
	{name: "ring.allreduce_tcp_ms", unit: "ms", better: "lower"},
	{name: "ring.allreduce_tcp_comp_ms", unit: "ms", better: "lower"},
	{name: "mpi.switch_allreduce_ms", unit: "ms", better: "lower"},
	// layer-only: no end-to-end workload drives these.
	{name: "ring.wa_exchange_ms", unit: "ms", better: "lower"},
	{name: "mpi.allreduce_ms", unit: "ms", better: "lower"},
	{name: "hierarchy.tree_allreduce_ms", unit: "ms", better: "lower"},
	{name: "hierarchy.ring_allreduce_ms", unit: "ms", better: "lower"},
	{name: "train.checkpoint_write_mb_s", unit: "MB/s", better: "higher"},
	{name: "train.checkpoint_restore_mb_s", unit: "MB/s", better: "higher"},

	// From the workload's own untraced run.
	{name: "train.final_loss", unit: "nats", better: "lower", perRun: true},
	{name: "train.iter_s_p95", unit: "s", better: "lower", perRun: true},
	{name: "train.compute_share", unit: "share", better: "lower", perRun: true},
	{name: "train.comm_share", unit: "share", better: "lower", perRun: true},
	{name: "train.straggler_wait_share", unit: "share", better: "lower", perRun: true},
	{name: "runtime.alloc_mb_per_iter", unit: "MB", better: "lower", perRun: true},
	{name: "runtime.allocs_per_iter", unit: "count", better: "lower", perRun: true},
	{name: "runtime.gc_pause_ms_per_iter", unit: "ms", better: "lower", perRun: true},
	{name: "runtime.gc_cycles_per_iter", unit: "count", better: "lower", perRun: true},
	// From the traced run.
	{name: "tcpfabric.retransmits_per_iter", unit: "count", better: "lower", perRun: true},
	{name: "tcpfabric.nacks_per_iter", unit: "count", better: "lower", perRun: true},
	{name: "tcpfabric.wire_overhead", unit: "ratio", better: "lower", perRun: true},
	{name: "trace.share_data", unit: "share", better: "lower", perRun: true},
	{name: "trace.share_nn_forward", unit: "share", better: "lower", perRun: true},
	{name: "trace.share_nn_backward", unit: "share", better: "lower", perRun: true},
	{name: "trace.share_codec", unit: "share", better: "lower", perRun: true},
	{name: "trace.share_rest", unit: "share", better: "lower", perRun: true},
	{name: "trace.codec_calls_per_iter", unit: "count", better: "lower", perRun: true},
	{name: "obs.share_compute", unit: "share", better: "lower", perRun: true},
	{name: "obs.share_compress", unit: "share", better: "lower", perRun: true},
	{name: "obs.share_send", unit: "share", better: "lower", perRun: true},
	{name: "obs.share_recv", unit: "share", better: "lower", perRun: true},
	{name: "obs.share_reduce", unit: "share", better: "lower", perRun: true},
	{name: "obs.share_decompress", unit: "share", better: "lower", perRun: true},
	{name: "obs.share_unattributed", unit: "share", better: "lower", perRun: true},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", perRun: true},
}

// values maps metric names to measured numbers.
type values map[string]float64

// reading is one metric as printed on the result line.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a -workload run.
type resultLine struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

// readings pairs every metric of defs with its measured value and lists the
// ones that were not measured (a run that failed before it got that far).
func readings(defs []metric, v values) (out map[string]reading, missing []string) {
	out = make(map[string]reading, len(defs))
	for _, m := range defs {
		x, ok := v[m.name]
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		out[m.name] = reading{Value: x, Unit: m.unit}
	}
	return out, missing
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestE2E      `json:"end_to_end"`
	PerLayer   []manifestLayer    `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/perf/run.sh"},
		Paths:      []string{"bench/perf"},
		RunSeconds: refSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.name, Why: w.why})
	}
	for _, e := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestE2E{Name: e.name, Unit: e.unit, Better: e.better, Bound: e.bound})
	}
	for _, l := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{Name: l.name, Unit: l.unit, Better: l.better})
	}
	return m
}
