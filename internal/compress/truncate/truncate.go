// Package truncate implements the naïve lossy float32 compression baseline
// evaluated in the paper (Figs. 4 and 14): dropping x least-significant bits
// of the IEEE-754 bit pattern ("xb-T"). Truncating up to 23 bits removes
// mantissa precision; beyond that the exponent itself is perturbed, which
// the paper shows is catastrophic for accuracy ("24b-T").
package truncate

import (
	"fmt"
	"math"

	"inceptionn/internal/bitio"
)

// Codec truncates a fixed number of LSBs from each float32.
type Codec struct {
	drop int // LSBs removed
}

// New returns a Codec dropping drop LSBs; drop must be in [0, 31].
func New(drop int) (Codec, error) {
	if drop < 0 || drop > 31 {
		return Codec{}, fmt.Errorf("truncate: drop %d out of range [0,31]", drop)
	}
	return Codec{drop: drop}, nil
}

// MustNew is New that panics on invalid arguments.
func MustNew(drop int) Codec {
	c, err := New(drop)
	if err != nil {
		panic(err)
	}
	return c
}

// KeptBits returns the number of bits stored per value.
func (c Codec) KeptBits() int { return 32 - c.drop }

// Ratio returns the fixed compression ratio 32 / (32 - drop).
func (c Codec) Ratio() float64 { return 32 / float64(c.KeptBits()) }

// String implements fmt.Stringer, e.g. "16b-T".
func (c Codec) String() string { return fmt.Sprintf("%db-T", c.drop) }

// ApplyAll truncates every element of vs in place.
func (c Codec) ApplyAll(vs []float32) {
	mask := ^uint32(1<<uint(c.drop) - 1)
	for i, v := range vs {
		vs[i] = bitsToFloat(floatToBits(v) & mask)
	}
}

// Compress packs the kept MSBs of every value of src into w.
func (c Codec) Compress(w *bitio.Writer, src []float32) {
	kept := c.KeptBits()
	for _, v := range src {
		w.WriteBits(uint64(floatToBits(v)>>uint(c.drop)), kept)
	}
}

// Decompress unpacks len(dst) values from r.
func (c Codec) Decompress(r *bitio.Reader, dst []float32) error {
	kept := c.KeptBits()
	for i := range dst {
		bits, err := r.ReadBits(kept)
		if err != nil {
			return fmt.Errorf("truncate: value %d: %w", i, err)
		}
		dst[i] = bitsToFloat(uint32(bits) << uint(c.drop))
	}
	return nil
}

func floatToBits(f float32) uint32 { return math.Float32bits(f) }

func bitsToFloat(b uint32) float32 { return math.Float32frombits(b) }
