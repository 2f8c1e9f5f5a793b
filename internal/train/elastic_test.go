package train

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"inceptionn/internal/fault"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
	"inceptionn/internal/nic"
)

func elasticOptions() Options {
	o := digitsOptions()
	o.Recovery = Elastic
	o.EvalSamples = 64
	return o
}

func weightsEqual(t *testing.T, a, b []float32, what string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: weight vectors differ in length (%d vs %d)", what, len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("%s: weight %d differs (%g vs %g)", what, i, a[i], b[i])
		}
	}
}

func TestElasticRunIsDeterministic(t *testing.T) {
	trainDS, testDS := digitsData()
	o := elasticOptions()
	a, err := Run(models.NewHDCSmall, trainDS, testDS, 30, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(models.NewHDCSmall, trainDS, testDS, 30, o)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalWeights == nil {
		t.Fatal("no final weights")
	}
	weightsEqual(t, a.FinalWeights, b.FinalWeights, "repeated elastic runs")
}

// TestElasticCrashRecovery is the headline elasticity property: a 4-node
// TCP run whose node 2 crashes mid-step completes anyway — the survivors
// abort the in-flight exchange, agree on the 3-member ring, replay from
// retained state with the average renormalized — and the post-recovery
// checkpoint resumes to bit-identical final weights on a run that starts
// directly as the 3-survivor configuration.
func TestElasticCrashRecovery(t *testing.T) {
	trainDS, testDS := digitsData()
	const iters = 30
	dirA := t.TempDir()

	o := elasticTCPOptions()
	o.CheckpointDir = dirA
	// Node 2 has sent ~10 iterations' worth of frames when the schedule
	// trips, crashing it mid-exchange.
	o.Chaos = &fault.Config{Seed: 7, CrashAfter: map[int]uint64{2: 65}}
	resA, err := Run(models.NewHDCSmall, trainDS, testDS, iters, o)
	if err != nil {
		t.Fatalf("crash run failed outright: %v", err)
	}
	if resA.FinalWeights == nil {
		t.Fatal("crash run produced no weights")
	}

	// Find the post-recovery checkpoint (the only one before the final).
	entries, err := os.ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	var recoveryPath string
	var recovery *Checkpoint
	for _, e := range entries {
		ck, err := ReadCheckpointFile(filepath.Join(dirA, e.Name()))
		if err != nil {
			t.Fatalf("invalid checkpoint %s: %v", e.Name(), err)
		}
		if ck.NextIter < iters {
			if recovery != nil {
				t.Fatalf("expected a single mid-run checkpoint, found %s and %s", recoveryPath, e.Name())
			}
			recovery, recoveryPath = ck, e.Name()
		}
	}
	if recovery == nil {
		t.Fatal("no post-recovery checkpoint was written")
	}
	if want := []int{0, 1, 3}; len(recovery.Members) != 3 ||
		recovery.Members[0] != want[0] || recovery.Members[1] != want[1] || recovery.Members[2] != want[2] {
		t.Fatalf("post-recovery members = %v, want %v", recovery.Members, want)
	}

	// Resume from the post-recovery checkpoint with no chaos at all, on the
	// in-process plane: the run starts as the 3-survivor ring and must
	// reproduce the crash run's final weights bit-for-bit.
	dirB := t.TempDir()
	raw, err := os.ReadFile(filepath.Join(dirA, recoveryPath))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirB, recoveryPath), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	o2 := elasticOptions()
	o2.CheckpointDir = dirB
	o2.Resume = true
	resB, err := Run(models.NewHDCSmall, trainDS, testDS, iters, o2)
	if err != nil {
		t.Fatal(err)
	}
	weightsEqual(t, resA.FinalWeights, resB.FinalWeights, "crash run vs resumed 3-node run")
}

// TestElasticTailCrashCompletes crashes a node during the run's final
// iterations, where survivors that commit the last exchange exit the
// worker loop while a lagging survivor still has a recovery rendezvous
// ahead of it. Completed workers must depart the membership so the
// laggard re-resolves against the shrunken view and finishes; without
// that, its rendezvous gather waits forever on already-exited members and
// the run hangs. Several crash points are tried so the survivors land on
// both sides of the commit (some finished, some aborted).
func TestElasticTailCrashCompletes(t *testing.T) {
	trainDS, testDS := digitsData()
	const iters = 30
	// Node 2 sends ~6 frames per 4-node iteration, so these land inside
	// the last couple of iterations' exchanges. 179 is the point where,
	// absent completion departures, the run deadlocks: two survivors
	// commit iteration 29 and exit while the third aborts its exchange
	// and rendezvouses against a view that still lists them.
	for _, crashAfter := range []uint64{170, 174, 179} {
		o := elasticTCPOptions()
		o.Chaos = &fault.Config{Seed: 11, CrashAfter: map[int]uint64{2: crashAfter}}
		done := make(chan struct{})
		var res Result
		var err error
		go func() {
			defer close(done)
			res, err = Run(models.NewHDCSmall, trainDS, testDS, iters, o)
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("crashAfter=%d: tail-crash run hung", crashAfter)
		}
		if err != nil {
			t.Fatalf("crashAfter=%d: tail-crash run failed: %v", crashAfter, err)
		}
		if res.FinalWeights == nil {
			t.Fatalf("crashAfter=%d: tail-crash run produced no weights", crashAfter)
		}
	}
}

// TestElasticAllCrashedReportsError: when every node dies, an elastic run
// must say so — a zero Result with a nil error would read as a successful run
// that trained nothing. (Depending on scheduling, the last survivor can
// occasionally finish solo before noticing the others died; that counts
// as a completed run and must come with weights.)
func TestElasticAllCrashedReportsError(t *testing.T) {
	trainDS, testDS := digitsData()
	o := elasticTCPOptions()
	o.Chaos = &fault.Config{Seed: 3, CrashAfter: map[int]uint64{0: 0, 1: 0, 2: 0, 3: 0}}
	res, err := Run(models.NewHDCSmall, trainDS, testDS, 10, o)
	if err == nil {
		if res.FinalWeights == nil {
			t.Fatal("all-crash run returned nil error and nil weights")
		}
	} else if !strings.Contains(err.Error(), "no member completed") {
		t.Fatalf("all-crash run error = %v, want a 'no member completed' report", err)
	}
}

// TestElasticStopResumeMatchesUninterrupted checks durable checkpointing
// end to end, with the lossy codec and error feedback in the loop so the
// residual state rides through the checkpoint too: a run stopped mid-way
// (graceful halt, final checkpoint) and resumed must land on exactly the
// weights of a run that was never interrupted.
func TestElasticStopResumeMatchesUninterrupted(t *testing.T) {
	trainDS, testDS := digitsData()
	const iters = 24
	base := elasticOptions()
	base.Processor = nic.Processor{Bound: fpcodec.MustBound(10)}
	base.Compress = true
	base.ErrorFeedback = true

	full, err := Run(models.NewHDCSmall, trainDS, testDS, iters, base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	stop := make(chan struct{})
	var once sync.Once
	o := base
	o.CheckpointDir = dir
	o.CheckpointEvery = 5
	o.Stop = stop
	o.GradHook = func(iter int, _ []float32) {
		if iter == 10 {
			once.Do(func() { close(stop) })
		}
	}
	res, err := Run(models.NewHDCSmall, trainDS, testDS, iters, o)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("stopped run: err = %v, want ErrInterrupted", err)
	}
	_ = res

	ck, _, err := LoadLatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.NextIter <= 10 || ck.NextIter >= iters {
		t.Fatalf("halt checkpoint at iteration %d, want inside (10, %d)", ck.NextIter, iters)
	}

	o2 := base
	o2.CheckpointDir = dir
	o2.Resume = true
	resumed, err := Run(models.NewHDCSmall, trainDS, testDS, iters, o2)
	if err != nil {
		t.Fatal(err)
	}
	weightsEqual(t, full.FinalWeights, resumed.FinalWeights, "uninterrupted vs stop+resume")
}

func TestRunCheckpointRoundTripAndCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	older := &Checkpoint{
		Universe: 4, Epoch: 0, NextIter: 5, Members: []int{0, 1, 2, 3},
		Weights:  []float32{1, 2, 3},
		Velocity: []float32{4, 5, 6},
		Cursors:  map[int]uint64{0: 5, 1: 5, 2: 5, 3: 5},
		Residuals: map[int][]float32{
			0: {0.5, -0.5, 0.25}, 1: {1, 1, 1}, 2: {2, 2, 2}, 3: {3, 3, 3},
		},
	}
	if _, err := older.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	newer := &Checkpoint{
		Universe: 4, Epoch: 1, NextIter: 9, Members: []int{0, 1, 3},
		Weights:  []float32{7, 8, 9},
		Velocity: []float32{1, 1, 2},
		Cursors:  map[int]uint64{0: 9, 1: 9, 3: 9},
	}
	newPath, err := newer.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}

	got, path, err := LoadLatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path != newPath || got.NextIter != 9 || got.Epoch != 1 {
		t.Fatalf("latest = %s (iter %d), want %s (iter 9)", path, got.NextIter, newPath)
	}
	if len(got.Members) != 3 || got.Cursors[3] != 9 || got.Residuals[0] != nil {
		t.Fatalf("round-trip mismatch: %+v", got)
	}

	// Corrupt the newest checkpoint: the scan must reject it on CRC and
	// fall back to the older intact one.
	raw, err := os.ReadFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(newPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err = LoadLatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextIter != 5 {
		t.Fatalf("fallback picked iteration %d, want 5 (the older intact checkpoint)", got.NextIter)
	}
	if got.Residuals[2][0] != 2 {
		t.Fatalf("fallback residuals corrupted: %v", got.Residuals)
	}

	// With every candidate corrupt, resume reports ErrNoCheckpoint.
	empty := t.TempDir()
	if err := os.WriteFile(filepath.Join(empty, "ckpt-0000000001-e0000.inck"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadLatestCheckpoint(empty); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}
