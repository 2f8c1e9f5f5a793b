// Package data provides the procedural synthetic datasets that substitute
// for MNIST and ImageNet in this reproduction (both are unavailable
// offline; see DESIGN.md §1). Every sample is generated deterministically
// from (dataset seed, index), so datasets need no storage, are identical
// across simulated workers, and can be partitioned exactly like the
// paper's per-worker dataset shards Dᵢ.
package data

import (
	"math"
	"math/rand"

	"inceptionn/internal/tensor"
)

// Dataset is a deterministic, indexable supervised dataset.
type Dataset interface {
	// Len returns the number of samples.
	Len() int
	// FeatureLen returns the flattened feature size of one sample.
	FeatureLen() int
	// FeatureShape returns the per-sample tensor shape (excluding batch).
	FeatureShape() []int
	// Sample writes sample i's features into x (length FeatureLen) and
	// returns its label.
	Sample(i int, x []float32) int
}

// Batch is a minibatch of samples.
type Batch struct {
	X      *tensor.Tensor
	Labels []int
}

// MakeBatch materializes the given sample indices into a batch.
func MakeBatch(ds Dataset, indices []int) Batch {
	shape := append([]int{len(indices)}, ds.FeatureShape()...)
	x := tensor.New(shape...)
	labels := make([]int, len(indices))
	fl := ds.FeatureLen()
	for bi, idx := range indices {
		labels[bi] = ds.Sample(idx, x.Data[bi*fl:(bi+1)*fl])
	}
	return Batch{X: x, Labels: labels}
}

// Loader draws random minibatches from a dataset.
type Loader struct {
	ds    Dataset
	batch int
	rng   *rand.Rand
}

// NewLoader constructs a loader with the given batch size, driven by rng.
func NewLoader(ds Dataset, batch int, rng *rand.Rand) *Loader {
	return &Loader{ds: ds, batch: batch, rng: rng}
}

// Next returns the next random minibatch (sampling with replacement, the
// standard stochastic-gradient regime).
func (l *Loader) Next() Batch {
	indices := make([]int, l.batch)
	for i := range indices {
		indices[i] = l.rng.Intn(l.ds.Len())
	}
	return MakeBatch(l.ds, indices)
}

// Partition is a contiguous 1/n shard of a dataset, the paper's per-worker
// partial dataset Dᵢ.
type Partition struct {
	Dataset
	start, length int
}

// NewPartition returns shard i of n over ds.
func NewPartition(ds Dataset, i, n int) *Partition {
	per := ds.Len() / n
	start := i * per
	length := per
	if i == n-1 {
		length = ds.Len() - start
	}
	return &Partition{Dataset: ds, start: start, length: length}
}

// Len implements Dataset.
func (p *Partition) Len() int { return p.length }

// Sample implements Dataset.
func (p *Partition) Sample(i int, x []float32) int {
	return p.Dataset.Sample(p.start+i, x)
}

// Digits is a procedural 28×28 handwritten-digit-like dataset (the MNIST
// substitute for the paper's HDC workload). Each digit is rendered from a
// seven-segment glyph with per-sample jitter: translation, per-segment
// intensity, stroke thickness variation, and pixel noise.
type Digits struct {
	N    int
	Seed int64
}

// NewDigits returns a digit dataset with n samples.
func NewDigits(n int, seed int64) *Digits { return &Digits{N: n, Seed: seed} }

// Len implements Dataset.
func (d *Digits) Len() int { return d.N }

// FeatureLen implements Dataset.
func (d *Digits) FeatureLen() int { return 28 * 28 }

// FeatureShape implements Dataset.
func (d *Digits) FeatureShape() []int { return []int{28 * 28} }

// segment bitmasks per digit for segments {top, tl, tr, mid, bl, br, bottom}.
var segDigit = [10]uint8{
	0b1110111, // 0: top tl tr bl br bottom
	0b0010010, // 1: tr br
	0b1011101, // 2: top tr mid bl bottom
	0b1011011, // 3: top tr mid br bottom
	0b0111010, // 4: tl tr mid br
	0b1101011, // 5: top tl mid br bottom
	0b1101111, // 6: top tl mid bl br bottom
	0b1010010, // 7: top tr br
	0b1111111, // 8: all
	0b1111011, // 9: top tl tr mid br bottom
}

// segment geometry on a 20×12 glyph box: {x0, y0, x1, y1}.
var segGeom = [7][4]int{
	{1, 0, 11, 1},    // top
	{0, 1, 1, 10},    // top-left
	{11, 1, 12, 10},  // top-right
	{1, 9, 11, 10},   // middle
	{0, 10, 1, 19},   // bottom-left
	{11, 10, 12, 19}, // bottom-right
	{1, 19, 11, 20},  // bottom
}

// Sample implements Dataset.
func (d *Digits) Sample(i int, x []float32) int {
	rng := rand.New(rand.NewSource(d.Seed*1_000_003 + int64(i)))
	label := rng.Intn(10)
	for j := range x {
		x[j] = 0
	}
	// Random placement of the 12×20 glyph box inside 28×28.
	offX := 6 + rng.Intn(5) // 6..10
	offY := 3 + rng.Intn(3) // 3..5
	thick := rng.Intn(2)    // stroke dilation
	mask := segDigit[label]
	for s := 0; s < 7; s++ {
		if mask>>(6-s)&1 == 0 {
			continue
		}
		intensity := 0.7 + 0.3*rng.Float64()
		g := segGeom[s]
		for yy := g[1] - thick; yy <= g[3]+thick; yy++ {
			for xx := g[0] - thick; xx <= g[2]+thick; xx++ {
				px, py := offX+xx, offY+yy
				if px < 0 || px >= 28 || py < 0 || py >= 28 {
					continue
				}
				v := float32(intensity)
				if x[py*28+px] < v {
					x[py*28+px] = v
				}
			}
		}
	}
	// Pixel noise.
	for j := range x {
		x[j] += float32(rng.NormFloat64() * 0.08)
		if x[j] < 0 {
			x[j] = 0
		}
		if x[j] > 1 {
			x[j] = 1
		}
	}
	return label
}

// Images is a procedural 3×32×32 10-class image dataset (the ImageNet
// substitute for the mini CNN workloads). Each class has a characteristic
// oriented grating frequency and per-channel color bias; samples add random
// phase and noise.
type Images struct {
	N    int
	Seed int64
}

// NewImages returns an image dataset with n samples.
func NewImages(n int, seed int64) *Images { return &Images{N: n, Seed: seed} }

// Len implements Dataset.
func (im *Images) Len() int { return im.N }

// FeatureLen implements Dataset.
func (im *Images) FeatureLen() int { return 3 * 32 * 32 }

// FeatureShape implements Dataset.
func (im *Images) FeatureShape() []int { return []int{3, 32, 32} }

// Sample implements Dataset.
func (im *Images) Sample(i int, x []float32) int {
	rng := rand.New(rand.NewSource(im.Seed*1_000_003 + int64(i)))
	label := rng.Intn(10)
	angle := float64(label) * math.Pi / 10
	freq := 0.25 + 0.08*float64(label)
	phase := rng.Float64() * 2 * math.Pi
	cos, sin := math.Cos(angle), math.Sin(angle)
	colorBias := [3]float64{
		0.3 * math.Sin(float64(label)),
		0.3 * math.Cos(float64(2*label)),
		0.3 * math.Sin(float64(3*label)+1),
	}
	// The grating is the same in every channel: one Sin per pixel.
	var grating [32 * 32]float64
	for yy := 0; yy < 32; yy++ {
		for xx := 0; xx < 32; xx++ {
			u := cos*float64(xx) + sin*float64(yy)
			grating[yy*32+xx] = math.Sin(u*freq + phase)
		}
	}
	for c := 0; c < 3; c++ {
		for p, s := range grating {
			v := s*0.5 + colorBias[c]
			v += rng.NormFloat64() * 0.15
			x[c*32*32+p] = float32(v)
		}
	}
	return label
}
