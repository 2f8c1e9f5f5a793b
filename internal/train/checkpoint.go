package train

import (
	"bufio"
	"fmt"
	"io"

	"inceptionn/internal/frame"
)

// Run-level checkpoint format (little-endian):
//
//	u32 magic "INCK"
//	u32 version (1)
//	u32 universe, u32 epoch, u64 next iteration
//	u32 member count, members
//	u64 weights length, weights; u64 velocity length, velocity
//	per member (view order): u64 loader cursor,
//	                         u64 residual length, residual
//	u32 CRC32-C of all preceding bytes
//
// No runner writes or reads this format. The codec stays because the
// benchmark harness times it (bench/perf's train.checkpoint_* rates), and
// while it exists its decoder is held to the hostile-input contract like
// every other reader of foreign bytes.
const (
	runCkptMagic   = 0x494E434B
	runCkptVersion = 1
)

// Checkpoint is a snapshot of a training run at an iteration boundary:
// iteration NextIter is the next to execute.
type Checkpoint struct {
	Universe int   // the fabric size the run started with
	Epoch    int   // membership epoch at capture time
	NextIter int   // first iteration the resumed run executes
	Members  []int // live members (sorted fabric ids)

	Weights  []float32 // shared model replica (identical across members)
	Velocity []float32 // shared optimizer momentum state

	Cursors   map[int]uint64    // per-member data-loader cursor
	Residuals map[int][]float32 // per-member error-feedback residual (nil entries allowed)
}

// maxCkptVector bounds any single vector in a checkpoint (2^28 float32s =
// 1 GiB). It is a plausibility limit, not the allocation guard: the frame
// reader allocates a vector only once its source has been shown to hold it.
const maxCkptVector = 1 << 28

// Encode writes the checkpoint to w with a trailing CRC32-C.
func (ck *Checkpoint) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fw := frame.NewWriter(bw)
	vector := func(vals []float32) {
		fw.U64(uint64(len(vals)))
		fw.F32s(vals)
	}
	fw.U32(runCkptMagic)
	fw.U32(runCkptVersion)
	fw.U32(uint32(ck.Universe))
	fw.U32(uint32(ck.Epoch))
	fw.U64(uint64(ck.NextIter))
	fw.U32(uint32(len(ck.Members)))
	for _, m := range ck.Members {
		fw.U32(uint32(m))
	}
	vector(ck.Weights)
	vector(ck.Velocity)
	for _, m := range ck.Members {
		fw.U64(ck.Cursors[m])
		vector(ck.Residuals[m])
	}
	fw.Sum()
	if err := fw.Err(); err != nil {
		return fmt.Errorf("train: encode checkpoint: %w", err)
	}
	return bw.Flush()
}

// DecodeCheckpoint parses and CRC-verifies a checkpoint stream. Hand it
// the file or buffer itself, not a wrapper: a source that can say how much
// it holds has every vector length checked against that before allocation.
func DecodeCheckpoint(src io.Reader) (*Checkpoint, error) {
	r := frame.NewReader(src)
	vector := func() []float32 {
		n := r.U64()
		if n > maxCkptVector {
			r.Fail(fmt.Errorf("train: checkpoint vector of %d values exceeds limit %d", n, maxCkptVector))
		}
		return r.F32s(int(n))
	}
	if magic := r.U32(); magic != runCkptMagic {
		r.Fail(fmt.Errorf("train: not a run checkpoint (bad magic %08x)", magic))
	}
	if v := r.U32(); v != runCkptVersion {
		r.Fail(fmt.Errorf("train: unsupported run checkpoint version %d (this build reads version %d)", v, runCkptVersion))
	}
	universe, epoch, next, nMembers := r.U32(), r.U32(), r.U64(), r.U32()
	if universe > 1<<20 || nMembers > universe || next > 1<<40 {
		r.Fail(fmt.Errorf("train: implausible checkpoint header (universe %d, members %d, next iter %d)",
			universe, nMembers, next))
	}
	ck := &Checkpoint{
		Universe: int(universe), Epoch: int(epoch), NextIter: int(next),
		Cursors: make(map[int]uint64), Residuals: make(map[int][]float32),
	}
	for ; nMembers > 0 && r.Err() == nil; nMembers-- {
		m := r.U32()
		if m >= universe {
			r.Fail(fmt.Errorf("train: checkpoint member %d outside universe %d", m, universe))
		}
		ck.Members = append(ck.Members, int(m))
	}
	ck.Weights, ck.Velocity = vector(), vector()
	for _, m := range ck.Members {
		ck.Cursors[m] = r.U64()
		if res := vector(); len(res) > 0 {
			ck.Residuals[m] = res
		}
	}
	r.Verify()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("train: decode checkpoint: %w", err)
	}
	return ck, nil
}
