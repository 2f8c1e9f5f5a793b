package ring

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"inceptionn/internal/comm"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/obs"
)

// foreign hides its processor's in-tree methods, as a processor from
// outside comm would: the fabric knows it only by its Process.
type foreign struct{ comm.WireProcessor }

// TestInprocRecorderCountsWireAndCodec is tcpfabric's
// TestRecorderCountsWireAndCodec on the in-process plane. A compressed
// ring AllReduce through the in-tree codec sends each block as its stream
// and has the receiver decode it: every sent block records a compress span
// and every received one a decompress span, both at iteration −1 on the
// node that ran the codec. The wire counters and every node's result are
// those of the same exchange through the codec as a foreign processor,
// which roundtrips each block at the sender and records no decompress
// span.
func TestInprocRecorderCountsWireAndCodec(t *testing.T) {
	const n, dim = 4, 10_001
	codec := comm.CodecProcessor{Bound: fpcodec.MustBound(10)}
	rng := rand.New(rand.NewSource(9))
	inputs := make([][]float32, n)
	for i := range inputs {
		inputs[i] = make([]float32, dim)
		for j := range inputs[i] {
			inputs[i][j] = float32(rng.NormFloat64() * 0.01)
		}
	}
	type run struct {
		out   [][]float32
		snap  map[string]any
		spans map[obs.Phase][n]int // per node
	}
	exchange := func(proc comm.WireProcessor) run {
		reg, tr := obs.NewRegistry(), obs.NewTracer(4096)
		f := comm.NewFabric(n, proc)
		f.SetRecorder(obs.NewRecorder(reg, tr))
		r := run{out: make([][]float32, n), spans: map[obs.Phase][n]int{}}
		var wg sync.WaitGroup
		for id := range n {
			r.out[id] = append([]float32(nil), inputs[id]...)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := AllReduceCtx(context.Background(), f.Endpoint(id), r.out[id], comm.ToSCompress, finalizeFor(codec, comm.ToSCompress), Options{}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		for _, s := range tr.Snapshot() {
			if s.Iter != -1 {
				t.Errorf("%v span of node %d at iteration %d, want -1", s.Phase, s.Node, s.Iter)
			}
			c := r.spans[s.Phase]
			c[s.Node]++
			r.spans[s.Phase] = c
		}
		r.snap = reg.Snapshot()
		return r
	}
	got, want := exchange(codec), exchange(foreign{codec})

	const blocks = 2 * (n - 1) // sent, and received, by every node
	for id := range n {
		if c := got.spans[obs.PhaseCompress][id]; c != blocks {
			t.Errorf("node %d: %d compress spans, want one per sent block, %d", id, c, blocks)
		}
		if c := got.spans[obs.PhaseDecompress][id]; c != blocks {
			t.Errorf("node %d: %d decompress spans, want one per received block, %d", id, c, blocks)
		}
		if c := want.spans[obs.PhaseDecompress][id]; c != 0 {
			t.Errorf("node %d: %d decompress spans through a foreign processor, want none", id, c)
		}
	}
	// Every step sends each of the n blocks once: the vector, 2(n−1) times.
	if raw := got.snap["wire_bytes_raw"]; raw != int64(blocks*4*dim) {
		t.Errorf("wire_bytes_raw = %v, want %d", raw, blocks*4*dim)
	}
	for _, name := range []string{"wire_bytes_raw", "wire_bytes_compressed", "compression_ratio"} {
		if got.snap[name] != want.snap[name] {
			t.Errorf("%s = %v, want %v as through a foreign processor", name, got.snap[name], want.snap[name])
		}
	}
	if c, ok := got.snap["wire_bytes_compressed"].(int64); !ok || c == 0 {
		t.Errorf("wire_bytes_compressed = %v after a compressed exchange", got.snap["wire_bytes_compressed"])
	}
	for id := range n {
		for j := range got.out[id] {
			if math.Float32bits(got.out[id][j]) != math.Float32bits(want.out[id][j]) {
				t.Fatalf("node %d value %d: %g, want %g as through a foreign processor", id, j, got.out[id][j], want.out[id][j])
			}
		}
	}
}
