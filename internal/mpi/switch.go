package mpi

import (
	"context"
	"errors"
	"fmt"

	"inceptionn/internal/ring"
)

// In-network switch all-reduce (NetReduce-style, arXiv:2009.09736): one
// communicator rank plays the programmable switch's reduction unit, every
// other rank streams its gradient up in chunks sized to the on-switch
// aggregation buffer, the switch combines each chunk as it lands, and
// multicasts the combined chunk back down all ports. Workers drive
// AllReduceSwitchCtx; the switch rank runs SwitchServeCtx concurrently.
//
// The combine is bit-exact with the ring collective: for every ring block
// b (same contiguous partition the ring uses, over the worker count), the
// switch accumulates worker contributions in the rotated order b, b+1, …,
// (b+p−1) mod p — exactly the left-associated order in which ring rank b's
// block is summed as it travels the ring — so an IEEE float32 sum lands on
// identical bits and a switch-trained replica matches a ring-trained one.

// Tag bases for the switch collective; chunk sequence asserted mod
// switchTagMod (streams are ordered per link, tags are protocol checks).
const (
	tagSwitchUp   = 7400
	tagSwitchDown = 7500
	switchTagMod  = 64
)

// Sentinels for the two failure classes the switch protocol itself can
// detect.
var (
	// ErrSwitchWindow reports a chunking whose chunk count exceeds the
	// mod-64 tag window: the k-th and (k+64)-th chunks would carry the
	// same tag, so a frame delayed across the window boundary could alias
	// a later chunk undetected. Validate rejects the configuration up
	// front instead.
	ErrSwitchWindow = errors.New("mpi: switch chunk count exceeds the tag window")
	// ErrSwitchProtocol reports a combine that violated the stream
	// protocol — a chunk of the wrong size, evidence the switch (or a
	// port) missed or mangled a combine step.
	ErrSwitchProtocol = errors.New("mpi: switch protocol violation")
)

// SwitchOptions tunes the switch collective.
type SwitchOptions struct {
	// ChunkFloats bounds how many float32s stream through the switch per
	// chunk, modelling the on-switch aggregation memory (netsim's
	// SwitchMemBytes / 4). 0 sends the whole vector as one chunk.
	ChunkFloats int
}

func (o SwitchOptions) chunk(n int) int {
	if o.ChunkFloats <= 0 || o.ChunkFloats > n {
		return n
	}
	return o.ChunkFloats
}

// Validate checks the chunking against the tag window for an n-float
// vector: more than switchTagMod chunks would silently wrap the
// tagSwitchUp/tagSwitchDown mod-64 bands, risking cross-chunk frame
// aliasing. The returned error (wrapping ErrSwitchWindow) names the
// smallest ChunkFloats that fits.
func (o SwitchOptions) Validate(n int) error {
	if n <= 0 {
		return nil
	}
	chunk := o.chunk(n)
	chunks := (n + chunk - 1) / chunk
	if chunks > switchTagMod {
		minChunk := (n + switchTagMod - 1) / switchTagMod
		return fmt.Errorf("%w: %d floats in %d-float chunks is %d chunks, window holds %d (use ChunkFloats >= %d)",
			ErrSwitchWindow, n, chunk, chunks, switchTagMod, minChunk)
	}
	return nil
}

// AllReduceSwitchCtx sums vec elementwise across all worker ranks, in
// place, through the switch at rank sw (which must concurrently run
// SwitchServeCtx with the same options and vector length). Each chunk is
// one deadline-bounded upload followed by one deadline-bounded receive of
// the combined result, so stragglers and partitions surface exactly as in
// the ring collective.
func (c *Comm) AllReduceSwitchCtx(ctx context.Context, vec []float32, sw int, opt SwitchOptions) error {
	if sw < 0 || sw >= c.Size() {
		return fmt.Errorf("mpi: switch rank %d outside [0,%d)", sw, c.Size())
	}
	if c.Rank() == sw {
		return fmt.Errorf("mpi: rank %d is the switch; run SwitchServeCtx instead", c.Rank())
	}
	if err := opt.Validate(len(vec)); err != nil {
		return err
	}
	chunk := opt.chunk(len(vec))
	for k, lo := 0, 0; lo < len(vec); k, lo = k+1, lo+chunk {
		hi := lo + chunk
		if hi > len(vec) {
			hi = len(vec)
		}
		if err := c.opt.SendStep(ctx, c.e, sw, vec[lo:hi], c.tos, tagSwitchUp+k%switchTagMod); err != nil {
			return err
		}
		// AnyLen here and in SwitchServeCtx: a wrong size is graded below,
		// as ErrSwitchProtocol.
		rb, err := c.opt.RecvStep(ctx, c.e, sw, tagSwitchDown+k%switchTagMod, ring.AnyLen)
		if err != nil {
			return err
		}
		if len(rb) != hi-lo {
			return fmt.Errorf("%w: switch returned %d floats for a %d-float chunk", ErrSwitchProtocol, len(rb), hi-lo)
		}
		copy(vec[lo:hi], rb)
	}
	return nil
}

// SwitchServeCtx runs the switch's reduction unit for one all-reduce over
// a gradLen-float vector: every rank except this one is a worker port, in
// rank order. Per chunk it receives all ports' contributions, combines
// them per ring block in the rotated port order (bit-exact with the ring
// result), applies the communicator finalize to the combined chunk, and
// multicasts it back down every port.
func (c *Comm) SwitchServeCtx(ctx context.Context, gradLen int, opt SwitchOptions) error {
	p := c.Size() - 1
	if p < 1 {
		return nil
	}
	workers := make([]int, 0, p)
	for r := 0; r < c.Size(); r++ {
		if r != c.Rank() {
			workers = append(workers, r)
		}
	}
	if err := opt.Validate(gradLen); err != nil {
		return err
	}
	chunk := opt.chunk(gradLen)
	ports := make([][]float32, p)
	out := make([]float32, chunk)
	for k, lo := 0, 0; lo < gradLen; k, lo = k+1, lo+chunk {
		hi := lo + chunk
		if hi > gradLen {
			hi = gradLen
		}
		for wi, r := range workers {
			rb, err := c.opt.RecvStep(ctx, c.e, r, tagSwitchUp+k%switchTagMod, ring.AnyLen)
			if err != nil {
				return err
			}
			if len(rb) != hi-lo {
				return fmt.Errorf("%w: port %d sent %d floats for a %d-float chunk", ErrSwitchProtocol, r, len(rb), hi-lo)
			}
			ports[wi] = rb
		}
		combined := out[:hi-lo]
		// Combine per ring block: ring.BlockBounds partitions the full
		// gradient into p blocks exactly as the ring does; within block b
		// the accumulation starts at port b and walks the ports in rotated
		// order, matching the ring's left-associated summation bit for bit.
		for b := 0; b < p; b++ {
			blo, bhi := ring.BlockBounds(gradLen, p, b)
			if blo < lo {
				blo = lo
			}
			if bhi > hi {
				bhi = hi
			}
			if blo >= bhi {
				continue
			}
			seg := combined[blo-lo : bhi-lo]
			for j := 0; j < p; j++ {
				src := ports[(b+j)%p][blo-lo : bhi-lo]
				if j == 0 {
					copy(seg, src)
					continue
				}
				for i, v := range src {
					seg[i] += v
				}
			}
		}
		if c.finalize != nil {
			c.finalize(combined)
		}
		for _, r := range workers {
			if err := c.opt.SendStep(ctx, c.e, r, combined, c.tos, tagSwitchDown+k%switchTagMod); err != nil {
				return err
			}
		}
	}
	return nil
}
