// Package fault is the chaos-engineering layer of the transport stack: a
// deterministic, seeded fault injector that the TCP fabric consults for
// every frame it writes — frame drops, bit-flip corruption, truncation,
// per-link partitions, and node crashes, the faults a reader of a TCP
// stream can see. The fabric repairs none of them: each fails the run
// closed with its cause (a CRC, codec or sequence error, a step deadline,
// a crash). It also holds the transport error sentinels every failure is
// graded by.
//
// Every fault decision is a pure function of (seed, src, dst, seq), so a
// chaos run is reproducible regardless of goroutine scheduling: re-running
// with the same seed injects the same faults at the same frames.
package fault

import (
	"errors"
	"sync/atomic"
)

// Transport error sentinels. A transport wraps them into its own errors, so
// callers grade a failure with errors.Is whatever wire raised it.
var (
	// ErrCrashed marks an operation on a node past its scheduled crash.
	ErrCrashed = errors.New("fault: node crashed")
	// ErrBadFrame marks a frame its receiver cannot deliver: a CRC
	// mismatch, a body the codec cannot decode, or a sequence gap or
	// repeat.
	ErrBadFrame = errors.New("fault: bad frame")
	// ErrClosed marks an operation on a closed transport.
	ErrClosed = errors.New("fault: transport closed")
)

// Link identifies a directed link src→dst.
type Link struct {
	Src, Dst int
}

// LinkFaults configures the fault mix on one directed link. Rates are
// probabilities in [0,1] evaluated independently per frame. The schedule window [From, Until) restricts injection to a
// range of per-link frame sequence numbers; Until == 0 means unbounded.
type LinkFaults struct {
	// DropRate silently discards the frame: the bytes never reach the
	// wire, and the receiver sees a sequence gap at the next frame.
	DropRate float64
	// CorruptRate flips one bit of the frame payload after the integrity
	// checksum is computed, modelling on-wire corruption that the
	// receiver's CRC check catches.
	CorruptRate float64
	// TruncateRate shortens a compressed frame body before the checksum
	// is computed, modelling a glitching compression engine: the CRC
	// validates but decompression fails.
	TruncateRate float64

	// From and Until bound the injection window by per-link frame
	// sequence number: faults fire only for From <= seq < Until
	// (Until == 0 means no upper bound).
	From, Until uint64

	// PartitionFrom blackholes the link permanently from the given frame
	// sequence number onward (every later frame is dropped). nil means
	// never.
	PartitionFrom *uint64
}

// Partition returns a LinkFaults that blackholes a link from frame seq
// onward.
func Partition(seq uint64) LinkFaults {
	return LinkFaults{PartitionFrom: &seq}
}

// Config is a full chaos schedule for a cluster.
type Config struct {
	// Seed drives every probabilistic decision; runs with equal seeds
	// and schedules inject identical faults.
	Seed int64
	// Default applies to every link without an explicit override.
	Default LinkFaults
	// Links overrides the default on specific directed links.
	Links map[Link]LinkFaults
	// CrashAfter maps a node id to the number of frame sends after which
	// the node "crashes": every later send from that node fails with
	// ErrCrashed.
	CrashAfter map[int]uint64
}

// Verdict is the injector's decision for one frame.
type Verdict struct {
	// Drop discards the frame entirely.
	Drop bool
	// CorruptBit >= 0 flips that bit offset (mod payload length) after
	// checksumming; -1 leaves the frame intact.
	CorruptBit int
	// TruncateBytes > 0 removes that many trailing bytes from a
	// compressed body before checksumming.
	TruncateBytes int
}

// Injector makes deterministic per-frame fault decisions from a Config.
// It is safe for concurrent use: all state is immutable after construction
// except the per-node crash counters, which are atomic.
type Injector struct {
	cfg     Config
	crashed []crashCounter
}

type crashCounter struct {
	limit atomic.Uint64 // 0 = never crashes
	sent  atomic.Uint64
}

// NewInjector compiles a Config for a cluster of n nodes.
func NewInjector(n int, cfg Config) *Injector {
	inj := &Injector{cfg: cfg, crashed: make([]crashCounter, n)}
	for id, after := range cfg.CrashAfter {
		if id >= 0 && id < n {
			inj.crashed[id].limit.Store(after + 1) // 0 sends allowed means limit 1
		}
	}
	return inj
}

// linkFaults resolves the fault mix for a directed link.
func (inj *Injector) linkFaults(src, dst int) LinkFaults {
	if lf, ok := inj.cfg.Links[Link{src, dst}]; ok {
		return lf
	}
	return inj.cfg.Default
}

// splitmix64 is the deterministic PRNG behind every fault draw.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// draw returns a uniform float in [0,1) keyed by the frame identity and
// the fault's stream. Its input must not change: a recorded chaos seed
// must keep faulting the frames it faulted (TestInjectorDrawsPinned).
func (inj *Injector) draw(src, dst int, seq uint64, stream uint64) float64 {
	h := uint64(inj.cfg.Seed)
	h = splitmix64(h ^ uint64(src)<<40 ^ uint64(dst)<<20 ^ seq)
	h = splitmix64(h ^ stream)
	return float64(h>>11) / float64(1<<53)
}

// Decide returns the fault verdict for the frame with per-link sequence
// number seq on link src→dst. Identical arguments always return identical
// verdicts for a given Config.
func (inj *Injector) Decide(src, dst int, seq uint64) Verdict {
	v := Verdict{CorruptBit: -1}
	lf := inj.linkFaults(src, dst)
	if lf.PartitionFrom != nil && seq >= *lf.PartitionFrom {
		v.Drop = true
		return v
	}
	if seq < lf.From || (lf.Until > 0 && seq >= lf.Until) {
		return v
	}
	if lf.DropRate > 0 && inj.draw(src, dst, seq, 2) < lf.DropRate {
		v.Drop = true
		return v
	}
	if lf.TruncateRate > 0 && inj.draw(src, dst, seq, 3) < lf.TruncateRate {
		// 1–4 trailing bytes vanish inside the "engine".
		v.TruncateBytes = 1 + int(splitmix64(uint64(inj.cfg.Seed)^seq^0x7C)%4)
	}
	if lf.CorruptRate > 0 && inj.draw(src, dst, seq, 4) < lf.CorruptRate {
		v.CorruptBit = int(splitmix64(uint64(inj.cfg.Seed)^seq<<1) % (1 << 20))
	}
	return v
}

// RecordSend advances node id's crash counter by one send and reports
// whether the node has crashed (the counter passed its limit).
func (inj *Injector) RecordSend(id int) bool {
	if id < 0 || id >= len(inj.crashed) {
		return false
	}
	c := &inj.crashed[id]
	limit := c.limit.Load()
	if limit == 0 {
		return false
	}
	return c.sent.Add(1) >= limit
}
