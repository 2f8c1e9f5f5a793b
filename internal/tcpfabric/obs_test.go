package tcpfabric

import (
	"context"
	"sync"
	"testing"

	"inceptionn/internal/comm"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/obs"
	"inceptionn/internal/ring"
)

// TestRecorderCountsWireAndCodec: a compressed ring AllReduce must surface
// its wire accounting and codec work in the attached recorder — raw and
// compressed wire bytes, the live compression-ratio gauge above 1, and
// the NIC engine's compress spans.
func TestRecorderCountsWireAndCodec(t *testing.T) {
	const n, dim = 4, 1000
	bound := fpcodec.MustBound(10)
	inputs := chaosInputs(n, dim, 3)
	proc := comm.CodecProcessor{Bound: bound}
	finalize := func(b []float32) {
		comm.ProcessInto(proc, b, b, comm.ToSCompress)
	}

	reg := obs.NewRegistry()
	tr := obs.NewTracer(4096)
	cluster, err := NewClusterWithOptions(n, ClusterOptions{
		Compress: true,
		Bound:    bound,
		Obs:      obs.NewRecorder(reg, tr),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := ring.AllReduceCtx(context.Background(), cluster.Node(id), inputs[id], comm.ToSCompress, finalize, ring.Options{}); err != nil {
				t.Error(err)
			}
		}(id)
	}
	wg.Wait()

	snap := reg.Snapshot()
	counter := func(name string) int64 {
		v, ok := snap[name].(int64)
		if !ok {
			t.Fatalf("metric %q missing or not a counter: %#v", name, snap[name])
		}
		return v
	}
	// Every frame's floats count once as raw bytes: 2(n−1) blocks a node.
	if got, want := counter("wire_bytes_raw"), int64(2*(n-1)*4*dim); got != want {
		t.Errorf("wire_bytes_raw = %d, want %d", got, want)
	}
	if counter("wire_bytes_compressed") == 0 {
		t.Error("wire_bytes_compressed = 0 after a compressed exchange")
	}
	ratio, ok := snap["compression_ratio"].(float64)
	if !ok || ratio <= 1 {
		t.Errorf("compression_ratio = %v, want > 1", snap["compression_ratio"])
	}
	// The recorder's tracer must hold the transport codec spans.
	var sawCompress bool
	for _, s := range tr.Snapshot() {
		if s.Phase == obs.PhaseCompress {
			sawCompress = true
			break
		}
	}
	if !sawCompress {
		t.Error("tracer recorded no compress spans from the NIC engine path")
	}
}
