package tcpfabric

import (
	"testing"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/fault"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/obs"
)

// TestChaosCountersUnderCorruption: a compressed ring AllReduce under
// injected drops and corruption must surface its recovery work in the
// attached recorder — retransmits and CRC failures both nonzero, wire
// accounting populated, and the live compression-ratio gauge above 1.
func TestChaosCountersUnderCorruption(t *testing.T) {
	const n, dim = 4, 1000
	bound := fpcodec.MustBound(10)
	inputs := chaosInputs(n, dim, 3)
	proc := comm.CodecProcessor{Bound: bound}
	finalize := func(b []float32) {
		out, _ := proc.Process(b, comm.ToSCompress)
		copy(b, out)
	}

	reg := obs.NewRegistry()
	tr := obs.NewTracer(4096)
	rec := obs.NewRecorder(reg, tr)
	cluster, err := NewClusterWithOptions(n, ClusterOptions{
		Compress: true,
		Bound:    bound,
		Obs:      rec,
		Chaos: fault.NewInjector(n, fault.Config{
			Seed:    9,
			Default: fault.LinkFaults{DropRate: 0.05, CorruptRate: 0.05},
		}),
		Retry: RetryPolicy{ProbeRTO: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	runChaosRing(t, cluster, inputs, comm.ToSCompress, finalize, 60*time.Second)

	snap := reg.Snapshot()
	counter := func(name string) int64 {
		v, ok := snap[name].(int64)
		if !ok {
			t.Fatalf("metric %q missing or not a counter: %#v", name, snap[name])
		}
		return v
	}
	if counter("tcp_retransmits") == 0 {
		t.Error("tcp_retransmits = 0 under 5% drops + 5% corruption")
	}
	if counter("tcp_crc_failures") == 0 {
		t.Error("tcp_crc_failures = 0 under 5% corruption")
	}
	if counter("tcp_nacks") == 0 {
		t.Error("tcp_nacks = 0 under injected corruption")
	}
	// wire_bytes_raw still moves on a compressed run: ACK/NACK control
	// frames always travel uncompressed.
	if counter("wire_bytes_raw") == 0 {
		t.Error("wire_bytes_raw = 0; control frames should be accounted")
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
