// Package szlike implements an error-bounded lossy floating-point codec of
// the SZ family (Di & Cappello, IPDPS 2016), used as the software lossy
// compression baseline of the paper's Fig. 7.
//
// Like SZ it is *predictive*: each value is predicted from its already-
// decoded predecessors (preceding-value and linear-extrapolation
// predictors); the prediction residual is quantized into uniform bins of
// width 2·bound. Values falling outside the quantization range are stored
// verbatim. The decoder reproduces predictions from the reconstructed
// stream, so encoder and decoder stay in lockstep.
//
// Wire format per value (bit-packed, LSB-first):
//
//	flag bit 0: quantized — followed by binBits bits of bin index
//	flag bit 1: unpredictable — followed by the 32 raw IEEE-754 bits
package szlike

import (
	"fmt"
	"math"

	"inceptionn/internal/bitio"
)

// Codec is an SZ-style predictive error-bounded codec.
type Codec struct {
	bound   float64
	binBits int
	bins    int // number of bins, odd so bin (bins-1)/2 means "residual 0"
}

// New returns a codec with the given absolute error bound and bin-index
// width in bits (SZ's "quantization intervals"). binBits must be in [2, 16].
func New(bound float64, binBits int) (Codec, error) {
	if !(bound > 0) || math.IsInf(bound, 1) {
		return Codec{}, fmt.Errorf("szlike: invalid bound %g", bound)
	}
	if binBits < 2 || binBits > 16 {
		return Codec{}, fmt.Errorf("szlike: binBits %d out of range [2,16]", binBits)
	}
	bins := 1<<uint(binBits) - 1 // odd
	return Codec{bound: bound, binBits: binBits, bins: bins}, nil
}

// MustNew is New that panics on error.
func MustNew(bound float64, binBits int) Codec {
	c, err := New(bound, binBits)
	if err != nil {
		panic(err)
	}
	return c
}

// predict returns the two-predictor estimate given the last two
// reconstructed values; n is how many reconstructed values exist.
func predict(prev1, prev2 float64, n int) float64 {
	switch {
	case n >= 2:
		return 2*prev1 - prev2 // linear extrapolation
	case n == 1:
		return prev1 // preceding value
	default:
		return 0
	}
}

// Compress encodes src into w.
func (c Codec) Compress(w *bitio.Writer, src []float32) {
	mid := (c.bins - 1) / 2
	var prev1, prev2 float64
	for i, v := range src {
		pred := predict(prev1, prev2, i)
		residual := float64(v) - pred
		bin := int(math.Floor(residual/(2*c.bound) + 0.5))
		recon := pred + float64(bin)*2*c.bound
		if bin >= -mid && bin <= mid &&
			math.Abs(recon-float64(v)) <= c.bound &&
			!math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
			w.WriteBit(0)
			w.WriteBits(uint64(bin+mid), c.binBits)
			prev2, prev1 = prev1, recon
		} else {
			w.WriteBit(1)
			w.WriteBits(uint64(math.Float32bits(v)), 32)
			prev2, prev1 = prev1, float64(v)
		}
	}
}

// Decompress decodes len(dst) values from r.
func (c Codec) Decompress(r *bitio.Reader, dst []float32) error {
	mid := (c.bins - 1) / 2
	var prev1, prev2 float64
	for i := range dst {
		flag, err := r.ReadBit()
		if err != nil {
			return fmt.Errorf("szlike: value %d flag: %w", i, err)
		}
		if flag == 0 {
			raw, err := r.ReadBits(c.binBits)
			if err != nil {
				return fmt.Errorf("szlike: value %d bin: %w", i, err)
			}
			bin := int(raw) - mid
			recon := predict(prev1, prev2, i) + float64(bin)*2*c.bound
			dst[i] = float32(recon)
			prev2, prev1 = prev1, recon
		} else {
			raw, err := r.ReadBits(32)
			if err != nil {
				return fmt.Errorf("szlike: value %d raw: %w", i, err)
			}
			dst[i] = math.Float32frombits(uint32(raw))
			prev2, prev1 = prev1, float64(dst[i])
		}
	}
	return nil
}

// CompressedBits returns the exact encoded size of src in bits.
func (c Codec) CompressedBits(src []float32) int64 {
	w := bitio.NewWriter(len(src)) // heuristic capacity
	c.Compress(w, src)
	return int64(w.Len())
}

// Ratio returns the compression ratio of src.
func (c Codec) Ratio(src []float32) float64 {
	if len(src) == 0 {
		return 0
	}
	return float64(32*int64(len(src))) / float64(c.CompressedBits(src))
}
