package train

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"inceptionn/internal/frame"
)

// ErrNoCheckpoint reports that a checkpoint directory holds no valid
// checkpoint to resume from.
var ErrNoCheckpoint = errors.New("train: no checkpoint found")

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
// Unlike an nn.Network checkpoint (one replica's weights), this captures
// the whole elastic run: the membership view, every survivor's data-loader
// cursor and error-feedback residual, and the shared weights/optimizer
// state — everything needed to resume bit-identically.
const (
	runCkptMagic   = 0x494E434B
	runCkptVersion = 1
)

// Checkpoint is a durable snapshot of an elastic training run at an
// iteration boundary: iteration NextIter is the next to execute.
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

// ckptFileName names checkpoints so a lexical sort orders them by
// (iteration, epoch) — zero-padded for the scan in LoadLatestCheckpoint.
func ckptFileName(nextIter, epoch int) string {
	return fmt.Sprintf("ckpt-%010d-e%04d.inck", nextIter, epoch)
}

// WriteFile atomically persists the checkpoint into dir: the stream is
// written to a temp file, fsynced, and renamed into place, so a crash
// mid-write can never leave a half-written checkpoint under the final
// name (and the CRC catches torn sectors even if it somehow did).
func (ck *Checkpoint) WriteFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("train: checkpoint dir: %w", err)
	}
	final := filepath.Join(dir, ckptFileName(ck.NextIter, ck.Epoch))
	tmp, err := os.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return "", fmt.Errorf("train: checkpoint temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := ck.Encode(tmp); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", fmt.Errorf("train: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("train: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return "", fmt.Errorf("train: checkpoint rename: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() // make the rename durable; best-effort on exotic filesystems
		d.Close()
	}
	return final, nil
}

// ReadCheckpointFile loads and verifies one checkpoint file.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ck, err := DecodeCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ck, nil
}

// LoadLatestCheckpoint scans dir for the newest valid checkpoint, skipping
// corrupt or truncated files (an interrupted writer's leftovers) in favor
// of older intact ones. Returns ErrNoCheckpoint when none qualifies.
func LoadLatestCheckpoint(dir string) (*Checkpoint, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, "", ErrNoCheckpoint
		}
		return nil, "", fmt.Errorf("train: scan checkpoint dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); !e.IsDir() && strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".inck") {
			names = append(names, n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	var lastErr error
	for _, n := range names {
		path := filepath.Join(dir, n)
		ck, err := ReadCheckpointFile(path)
		if err == nil {
			return ck, path, nil
		}
		lastErr = err
	}
	if lastErr != nil {
		return nil, "", fmt.Errorf("%w (newest candidate invalid: %v)", ErrNoCheckpoint, lastErr)
	}
	return nil, "", ErrNoCheckpoint
}

// GCCheckpoints prunes dir down to the newest keep valid checkpoints so
// long elastic runs do not fill the disk. Files are ranked by name
// (iteration then epoch, the write order); everything older than the
// keep'th valid file is removed, as is any corrupt file in that older
// range. Corrupt files newer than the cutoff are left alone — they are
// within the window LoadLatestCheckpoint may still be probing, and they
// cost one directory slot, not a model's worth of disk. keep <= 0
// disables pruning. Removal needs no special atomicity: unlink either
// happens or it does not, and the retained files are untouched either
// way; the directory is fsynced afterwards like WriteFile's rename.
func GCCheckpoints(dir string, keep int) error {
	if keep <= 0 {
		return nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("train: scan checkpoint dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); !e.IsDir() && strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".inck") {
			names = append(names, n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	kept, removed := 0, 0
	for _, n := range names {
		path := filepath.Join(dir, n)
		if kept >= keep {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("train: checkpoint gc: %w", err)
			}
			removed++
			continue
		}
		if _, err := ReadCheckpointFile(path); err == nil {
			kept++
		}
	}
	if removed > 0 {
		if d, err := os.Open(dir); err == nil {
			d.Sync() // best-effort, as in WriteFile
			d.Close()
		}
	}
	return nil
}
