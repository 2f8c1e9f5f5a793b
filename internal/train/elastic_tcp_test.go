package train

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/fault"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
)

// elasticTCPOptions are elasticOptions on the TCP plane, the one wire
// chaos can fault.
func elasticTCPOptions() Options {
	o := elasticOptions()
	o.StepTimeout = 20 * time.Second
	return o.onTCP(fpcodec.MustBound(10))
}

// TestElasticTCPJoin is the acceptance run for elastic scale-out over real
// sockets: a 4-node TCP ring loses one worker to a chaos crash, the
// survivors reconfigure, and the janitor brings the node back — it loads
// the newest checkpoint, rejoins through the coordinator's epoch sequence,
// and is spliced into the ring with state synced from a survivor. The
// post-join checkpoint then resumes on a chaos-free run to bitwise the
// same final weights, proving the joined ring computes exactly what a
// 4-member ring at the same schedule computes.
func TestElasticTCPJoin(t *testing.T) {
	trainDS, testDS := digitsData()
	const iters = 30
	dirA := t.TempDir()

	o := elasticTCPOptions()
	o.CheckpointDir = dirA
	o.CheckpointKeep = -1 // keep every checkpoint; the test dissects them
	o.Join = true
	// Node 2 has sent ~10 iterations' worth of frames when the schedule
	// trips, crashing it mid-exchange.
	o.Chaos = &fault.Config{Seed: 7, CrashAfter: map[int]uint64{2: 65}}
	resA, err := Run(models.NewHDCSmall, trainDS, testDS, iters, o)
	if err != nil {
		t.Fatalf("crash+join run failed: %v", err)
	}
	if resA.FinalWeights == nil {
		t.Fatal("crash+join run produced no weights")
	}

	// The run's checkpoint trail must show the full cycle: an eviction
	// epoch without node 2, then a join epoch with all 4 members again.
	// Pick the earliest full-membership mid-run checkpoint as the resume
	// point.
	entries, err := os.ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	var joinCk *Checkpoint
	var joinName string
	sawEviction := false
	for _, e := range entries {
		ck, err := ReadCheckpointFile(filepath.Join(dirA, e.Name()))
		if err != nil {
			t.Fatalf("invalid checkpoint %s: %v", e.Name(), err)
		}
		if ck.NextIter >= iters {
			continue
		}
		if len(ck.Members) == 3 && !ck.contains(2) {
			sawEviction = true
			continue
		}
		if len(ck.Members) == 4 && ck.Epoch >= 2 {
			if joinCk == nil || ck.NextIter < joinCk.NextIter {
				joinCk, joinName = ck, e.Name()
			}
		}
	}
	if joinCk == nil {
		t.Fatal("no post-join checkpoint (4 members, epoch >= 2) was written")
	}
	_ = sawEviction // the eviction checkpoint may be skipped if the join raced it

	// Resume from the post-join checkpoint on a fresh, chaos-free run: the
	// member schedule from that point on is identical (all 4 nodes to the
	// end), so the final weights must match bit-for-bit.
	dirB := t.TempDir()
	raw, err := os.ReadFile(filepath.Join(dirA, joinName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirB, joinName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	o2 := elasticTCPOptions()
	o2.CheckpointDir = dirB
	o2.Resume = true
	resB, err := Run(models.NewHDCSmall, trainDS, testDS, iters, o2)
	if err != nil {
		t.Fatal(err)
	}
	weightsEqual(t, resA.FinalWeights, resB.FinalWeights, "crash+join run vs resume from post-join checkpoint")
}

// TestElasticTCPBitIdenticalToElastic: elastic runs on the two planes share
// the membership protocol and differ only in their wire, so on a clean run
// the TCP plane lands on the in-process plane's weights, final loss and
// pre-codec byte count — plain and compressed, at three and four workers,
// whole-block and chunked.
func TestElasticTCPBitIdenticalToElastic(t *testing.T) {
	const iters = 6
	trainDS, testDS := digitsData()
	bound := fpcodec.MustBound(10)
	for _, compress := range []bool{false, true} {
		for _, workers := range []int{3, 4} {
			for _, chunk := range []int{0, 4096} {
				t.Run(fmt.Sprintf("compress=%v/workers=%d/chunk=%d", compress, workers, chunk), func(t *testing.T) {
					o := elasticOptions()
					o.StepTimeout = 20 * time.Second
					o.Workers, o.ChunkSize = workers, chunk
					if compress {
						o.Compress, o.Processor = true, comm.CodecProcessor{Bound: bound}
					}
					want, err := Run(models.NewHDCSmall, trainDS, testDS, iters, o)
					if err != nil {
						t.Fatalf("in-process: %v", err)
					}
					got, err := Run(models.NewHDCSmall, trainDS, testDS, iters, o.onTCP(bound))
					if err != nil {
						t.Fatalf("TCP: %v", err)
					}
					weightsEqual(t, got.FinalWeights, want.FinalWeights, "elastic TCP vs in-process")
					if math.Float64bits(got.FinalLoss) != math.Float64bits(want.FinalLoss) {
						t.Errorf("FinalLoss = %v, in-process %v", got.FinalLoss, want.FinalLoss)
					}
					if got.RawBytes != want.RawBytes {
						t.Errorf("RawBytes = %d, in-process %d", got.RawBytes, want.RawBytes)
					}
				})
			}
		}
	}
}

// TestGCCheckpointsKeepsNewestValid pins the pruning contract: the newest
// K *valid* checkpoints survive, corrupt files inside the keep window are
// left alone (they are evidence, and removing them buys nothing), and
// everything older than the K-th valid file goes.
func TestGCCheckpointsKeepsNewestValid(t *testing.T) {
	dir := t.TempDir()
	write := func(nextIter, epoch int) string {
		ck := &Checkpoint{
			Universe: 2, Epoch: epoch, NextIter: nextIter, Members: []int{0, 1},
			Weights:  []float32{1},
			Velocity: []float32{2},
			Cursors:  map[int]uint64{0: uint64(nextIter), 1: uint64(nextIter)},
		}
		p, err := ck.WriteFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		return filepath.Base(p)
	}
	oldest := write(1, 0)
	older := write(2, 0)
	mid := write(3, 0)
	corruptName := write(4, 0)
	newest := write(5, 0)
	// Corrupt the second-newest in place: it sits inside the keep window.
	path := filepath.Join(dir, corruptName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := GCCheckpoints(dir, 2); err != nil {
		t.Fatal(err)
	}
	left := map[string]bool{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		left[e.Name()] = true
	}
	for _, want := range []string{newest, corruptName, mid} {
		if !left[want] {
			t.Errorf("GC removed %s, want it kept", want)
		}
	}
	for _, gone := range []string{older, oldest} {
		if left[gone] {
			t.Errorf("GC kept %s, want it pruned", gone)
		}
	}

	// keep <= 0 disables pruning entirely.
	if err := GCCheckpoints(dir, 0); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(left) {
		t.Errorf("GC with keep=0 changed the directory (%d -> %d files)", len(left), len(after))
	}
}
