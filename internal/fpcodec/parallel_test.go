package fpcodec

import (
	"bytes"
	"math/rand"
	"testing"

	"inceptionn/internal/bitio"
	"inceptionn/internal/par"
)

// gradLike returns n values with a gradient-like distribution: mostly tiny
// (TagZero/Tag8), some Tag16, and a sprinkle of TagNone outliers.
func gradLike(rng *rand.Rand, n int) []float32 {
	src := make([]float32, n)
	for i := range src {
		switch rng.Intn(10) {
		case 0:
			src[i] = float32(rng.NormFloat64() * 3) // outliers, some ≥ 1.0
		case 1, 2:
			src[i] = float32(rng.NormFloat64() * 0.1)
		default:
			src[i] = float32(rng.NormFloat64() * 0.001)
		}
	}
	return src
}

// TestStreamParallelBitIdentical pins the wire-format contract of the
// sharded encoder: for any worker count, CompressStream produces the exact
// byte sequence and bit length of one sequential kernel call — from a
// writer that ends on a byte and from one that does not — and the stream
// decodes to the sequential stream's values, leaving the reader at its end.
func TestStreamParallelBitIdentical(t *testing.T) {
	bound := MustBound(10)
	rng := rand.New(rand.NewSource(7))
	// Sizes straddle the parallel threshold and exercise partial final
	// groups and uneven group-per-shard splits.
	for _, n := range []int{1, 9, 16*1024 - 3, 64 * 1024, 64*1024 + 5, 200*1024 + 1} {
		src := gradLike(rng, n)
		for _, offset := range []int{0, 3} {
			seq, seqBits := AppendGroups([]byte{0x05}[:(offset+7)/8], offset, src, bound)
			want := make([]float32, n)
			if _, err := DecodeGroups(want, seq, offset, seqBits, bound); err != nil {
				t.Fatalf("n=%d: sequential decode: %v", n, err)
			}

			for _, workers := range []int{2, 3, 8} {
				prev := par.SetMaxWorkers(workers)
				w := bitio.NewWriter(0)
				w.WriteBits(0x05, offset)
				CompressStream(w, src, bound)
				par.SetMaxWorkers(prev)
				if w.Len() != seqBits || !bytes.Equal(w.Bytes(), seq) {
					t.Fatalf("n=%d offset=%d workers=%d: parallel stream differs (%d vs %d bits)",
						n, offset, workers, w.Len(), seqBits)
				}
				dst := make([]float32, n)
				r := bitio.NewReader(w.Bytes(), w.Len())
				if err := r.Skip(offset); err != nil {
					t.Fatal(err)
				}
				if err := DecompressStream(r, dst, bound); err != nil {
					t.Fatalf("n=%d offset=%d workers=%d: decode: %v", n, offset, workers, err)
				}
				if left := unread(r); left != 0 {
					t.Fatalf("n=%d offset=%d workers=%d: %d bits left after decode", n, offset, workers, left)
				}
				if !sameBits(dst, want) {
					t.Fatalf("n=%d offset=%d workers=%d: decode differs from the sequential stream's", n, offset, workers)
				}
			}
		}
	}
}

// TestShardBoundsGroupAligned checks the shard decomposition invariants:
// shards tile [0, n) exactly, and every boundary except the last is a
// multiple of GroupSize (so each shard owns whole burst groups).
func TestShardBoundsGroupAligned(t *testing.T) {
	for _, n := range []int{8, 17, 1000, 16384, 99991} {
		for shards := 1; shards <= 9; shards++ {
			next := 0
			for s := 0; s < shards; s++ {
				lo, hi := shardBounds(n, shards, s)
				if lo != next {
					t.Fatalf("n=%d shards=%d: shard %d starts at %d, want %d", n, shards, s, lo, next)
				}
				if lo%GroupSize != 0 && lo != n {
					t.Fatalf("n=%d shards=%d: shard %d start %d not group-aligned", n, shards, s, lo)
				}
				if hi < lo || hi > n {
					t.Fatalf("n=%d shards=%d: shard %d bounds [%d,%d)", n, shards, s, lo, hi)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d shards=%d: shards end at %d", n, shards, next)
			}
		}
	}
}

// TestDecompressGroupHostileTrailingTags pins the partial-group contract:
// when len(dst) < GroupSize, only the first len(dst) lanes' tags are
// honoured and only their data bits are consumed — even if a corrupt or
// adversarial encoder stuffed non-TagZero tags into the trailing lanes.
func TestDecompressGroupHostileTrailingTags(t *testing.T) {
	onKernelPaths(t, testDecompressGroupHostileTrailingTags)
}

func testDecompressGroupHostileTrailingTags(t *testing.T) {
	bound := MustBound(10)
	for count := 1; count < GroupSize; count++ {
		w := bitio.NewWriter(0)
		// Hand-roll a group: first `count` lanes Tag16, trailing lanes
		// claim TagNone (32 data bits each) but carry no data at all.
		var tags uint64
		for i := 0; i < count; i++ {
			tags |= uint64(Tag16) << uint(2*i)
		}
		for i := count; i < GroupSize; i++ {
			tags |= uint64(TagNone) << uint(2*i)
		}
		w.WriteBits(tags, TagVectorBits)
		for i := 0; i < count; i++ {
			v, tag := Compress(0.25, bound)
			if tag != Tag16 {
				t.Fatalf("setup: 0.25 compressed to %s, want %s", tag, Tag16)
			}
			w.WriteBits(uint64(v), Tag16.Bits())
		}
		// A sentinel value after the group proves exactly how many bits
		// the decoder consumed.
		const sentinel = 0x2A
		w.WriteBits(sentinel, 8)

		dst := make([]float32, count)
		r := bitio.NewReader(w.Bytes(), w.Len())
		if err := DecompressGroup(r, dst, bound); err != nil {
			t.Fatalf("count=%d: DecompressGroup: %v", count, err)
		}
		for i, v := range dst {
			if v != 0.25 {
				t.Fatalf("count=%d: dst[%d] = %g, want 0.25", count, i, v)
			}
		}
		if got, err := r.ReadBits(8); err != nil || got != sentinel {
			t.Fatalf("count=%d: sentinel after decode = %#x, %v (trailing hostile tags consumed data?)",
				count, got, err)
		}
	}
}

// TestDecompressStreamTruncatedParallel checks that a truncated stream
// surfaces an error instead of panicking, for sizes on both sides of the
// encoder's parallel threshold.
func TestDecompressStreamTruncatedParallel(t *testing.T) {
	bound := MustBound(10)
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{100, 64 * 1024} {
		src := gradLike(rng, n)
		w := bitio.NewWriter(0)
		CompressStream(w, src, bound)
		// Expose only half the bits.
		r := bitio.NewReader(w.Bytes(), w.Len()/2)
		dst := make([]float32, n)
		if err := DecompressStream(r, dst, bound); err == nil {
			t.Fatalf("n=%d: decode of truncated stream succeeded", n)
		}
	}
}
