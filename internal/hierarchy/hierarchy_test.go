package hierarchy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"inceptionn/internal/comm"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/ring"
)

func TestTopologyValidate(t *testing.T) {
	good := Topology{Workers: 8, GroupSize: 4}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Topology{
		{Workers: 7, GroupSize: 4},
		{Workers: 4, GroupSize: 1},
		{Workers: 2, GroupSize: 4},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v): expected error", bad)
		}
	}
	if good.Groups() != 2 {
		t.Errorf("Groups = %d", good.Groups())
	}
	if good.FabricSize() != 9 { // tree mode by default
		t.Errorf("FabricSize = %d", good.FabricSize())
	}
	ring := good
	ring.Mode = ModeRingOfLeaders
	if ring.FabricSize() != 8 {
		t.Errorf("ring FabricSize = %d", ring.FabricSize())
	}
}

func sumsMatch(t *testing.T, out [][]float32, inputs [][]float32, tol float64) {
	t.Helper()
	want := make([]float64, len(inputs[0]))
	for _, in := range inputs {
		for j, v := range in {
			want[j] += float64(v)
		}
	}
	for node := range out {
		for j := range want {
			if math.Abs(float64(out[node][j])-want[j]) > tol {
				t.Fatalf("node %d elem %d: got %g want %g", node, j, out[node][j], want[j])
			}
		}
	}
}

func makeInputs(workers, length int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([][]float32, workers)
	for i := range inputs {
		inputs[i] = make([]float32, length)
		for j := range inputs[i] {
			inputs[i][j] = float32(rng.Intn(100) - 50)
		}
	}
	return inputs
}

func TestBothModesComputeGlobalSum(t *testing.T) {
	for _, mode := range []Mode{ModeAggregatorTree, ModeRingOfLeaders} {
		for _, workers := range []int{4, 8, 12, 16} {
			top := Topology{Workers: workers, GroupSize: 4, Mode: mode}
			inputs := makeInputs(workers, 257, int64(workers))
			out, _, err := RunAllReduce(top, nil, inputs, 0, nil)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", mode, workers, err)
			}
			sumsMatch(t, out, inputs, 0) // integer-valued: exact
		}
	}
}

func TestGroupSizeVariants(t *testing.T) {
	for _, gs := range []int{2, 3, 4, 6} {
		top := Topology{Workers: gs * 3, GroupSize: gs, Mode: ModeRingOfLeaders}
		inputs := makeInputs(top.Workers, 100, int64(gs))
		out, _, err := RunAllReduce(top, nil, inputs, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		sumsMatch(t, out, inputs, 0)
	}
}

// TestFig1cCompressesEverywhere: in ring-of-leaders mode with compression,
// every traffic-carrying link moves fewer wire bytes than raw bytes.
func TestFig1cCompressesEverywhere(t *testing.T) {
	top := Topology{Workers: 8, GroupSize: 4, Mode: ModeRingOfLeaders}
	inputs := make([][]float32, 8)
	for i := range inputs {
		inputs[i] = make([]float32, 4096)
		for j := range inputs[i] {
			inputs[i][j] = 1e-5
		}
	}
	bound := fpcodec.MustBound(10)
	finalize := func(b []float32) {
		comm.ProcessInto(comm.CodecProcessor{Bound: bound}, b, b, comm.ToSCompress)
	}
	out, f, err := RunAllReduce(top, comm.CodecProcessor{Bound: bound}, inputs, comm.ToSCompress, finalize)
	if err != nil {
		t.Fatal(err)
	}
	_ = out
	// Gradient legs dominate: totals must show heavy compression. The only
	// uncompressed legs are the final intra-group result broadcasts.
	var raw int64
	for i := 0; i < f.N(); i++ {
		for j := 0; j < f.N(); j++ {
			raw += f.Stats(i, j).RawBytes.Load()
		}
	}
	if f.TotalWireBytes() > raw/2 {
		t.Errorf("wire %d vs raw %d: compression ineffective", f.TotalWireBytes(), raw)
	}
}

// TestFig1bAggregatorIsHotspot: in tree mode the aggregator's links carry
// group-count × gradient traffic while ring links stay balanced.
func TestFig1bAggregatorIsHotspot(t *testing.T) {
	top := Topology{Workers: 8, GroupSize: 4, Mode: ModeAggregatorTree}
	inputs := makeInputs(8, 1000, 5)
	_, f, err := RunAllReduce(top, nil, inputs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg := top.AggregatorID()
	var aggIn int64
	for _, leader := range []int{0, 4} {
		aggIn += f.Stats(leader, agg).RawBytes.Load()
	}
	if aggIn != 2*4*1000 {
		t.Errorf("aggregator received %d raw bytes, want %d", aggIn, 2*4*1000)
	}
	// Non-leaders never talk to the aggregator.
	for _, w := range []int{1, 2, 3, 5, 6, 7} {
		if f.Stats(w, agg).Messages.Load() != 0 {
			t.Errorf("worker %d sent to the aggregator", w)
		}
	}
}

// TestCompressedReplicasIdentical: with the finalize hook, all workers end
// with bit-identical vectors even under lossy compression, in both modes.
func TestCompressedReplicasIdentical(t *testing.T) {
	bound := fpcodec.MustBound(10)
	proc := comm.CodecProcessor{Bound: bound}
	finalize := func(b []float32) {
		comm.ProcessInto(proc, b, b, comm.ToSCompress)
	}
	rng := rand.New(rand.NewSource(9))
	for _, mode := range []Mode{ModeAggregatorTree, ModeRingOfLeaders} {
		top := Topology{Workers: 8, GroupSize: 4, Mode: mode}
		inputs := make([][]float32, 8)
		for i := range inputs {
			inputs[i] = make([]float32, 500)
			for j := range inputs[i] {
				inputs[i][j] = float32(rng.NormFloat64() * 0.01)
			}
		}
		out, _, err := RunAllReduce(top, proc, inputs, comm.ToSCompress, finalize)
		if err != nil {
			t.Fatal(err)
		}
		for node := 1; node < len(out); node++ {
			for j := range out[0] {
				if out[node][j] != out[0][j] {
					t.Fatalf("%v: node %d diverges at %d", mode, node, j)
				}
			}
		}
	}
}

func TestQuickHierarchicalSum(t *testing.T) {
	f := func(seed int64, groupsRaw, gsRaw, lenRaw uint8) bool {
		groups := int(groupsRaw%3) + 2 // 2..4 groups
		gs := int(gsRaw%3) + 2         // 2..4 per group
		length := int(lenRaw)%150 + 1
		mode := ModeRingOfLeaders
		if seed%2 == 0 {
			mode = ModeAggregatorTree
		}
		top := Topology{Workers: groups * gs, GroupSize: gs, Mode: mode}
		inputs := makeInputs(top.Workers, length, seed)
		out, _, err := RunAllReduce(top, nil, inputs, 0, nil)
		if err != nil {
			return false
		}
		want := make([]float64, length)
		for _, in := range inputs {
			for j, v := range in {
				want[j] += float64(v)
			}
		}
		for node := range out {
			for j := range want {
				if float64(out[node][j]) != want[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllReduceValidation(t *testing.T) {
	top := Topology{Workers: 8, GroupSize: 4}
	if _, _, err := RunAllReduce(top, nil, make([][]float32, 3), 0, nil); err == nil {
		t.Error("expected error for wrong input count")
	}
	bad := Topology{Workers: 7, GroupSize: 4}
	if _, _, err := RunAllReduce(bad, nil, make([][]float32, 7), 0, nil); err == nil {
		t.Error("expected error for invalid topology")
	}
}

// RunAllReduce is the tests' harness: it spins up the full topology on
// an in-process fabric, runs one hierarchical AllReduce with each worker's
// input vector, and returns the per-worker results.
func RunAllReduce(t Topology, proc comm.WireProcessor, inputs [][]float32, tos uint8, finalize func([]float32)) ([][]float32, *comm.Fabric, error) {
	if err := t.Validate(); err != nil {
		return nil, nil, err
	}
	if len(inputs) != t.Workers {
		return nil, nil, fmt.Errorf("hierarchy: %d inputs for %d workers", len(inputs), t.Workers)
	}
	f := comm.NewFabric(t.FabricSize(), proc)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := make([][]float32, t.Workers)
	errs := make([]error, t.FabricSize())
	var wg sync.WaitGroup
	run := func(id int, body func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[id] = body(); errs[id] != nil {
				cancel() // unblock the other nodes
			}
		}()
	}
	if t.Mode == ModeAggregatorTree {
		run(t.AggregatorID(), func() error {
			return RunAggregatorCtx(ctx, t, f.Endpoint(t.AggregatorID()), len(inputs[0]), ring.Options{})
		})
	}
	for id := 0; id < t.Workers; id++ {
		run(id, func() error {
			out[id] = append([]float32(nil), inputs[id]...)
			return AllReduceCtx(ctx, t, f.Endpoint(id), out[id], tos, finalize, ring.Options{})
		})
	}
	wg.Wait()
	return out, f, errors.Join(errs...)
}
