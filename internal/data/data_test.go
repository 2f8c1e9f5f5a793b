package data

import (
	"math"
	"math/rand"
	"testing"
)

func TestDigitsDeterministic(t *testing.T) {
	d := NewDigits(100, 42)
	a := make([]float32, d.FeatureLen())
	b := make([]float32, d.FeatureLen())
	la := d.Sample(7, a)
	lb := d.Sample(7, b)
	if la != lb {
		t.Fatalf("labels differ: %d vs %d", la, lb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("features differ between identical calls")
		}
	}
}

func TestDigitsValueRangeAndLabels(t *testing.T) {
	d := NewDigits(500, 1)
	x := make([]float32, d.FeatureLen())
	seen := make(map[int]int)
	for i := 0; i < d.Len(); i++ {
		label := d.Sample(i, x)
		if label < 0 || label >= 10 {
			t.Fatalf("label %d out of range", label)
		}
		seen[label]++
		for j, v := range x {
			if v < 0 || v > 1 {
				t.Fatalf("sample %d pixel %d = %g out of [0,1]", i, j, v)
			}
		}
	}
	for c := 0; c < 10; c++ {
		if seen[c] == 0 {
			t.Errorf("class %d never generated", c)
		}
	}
}

func TestDigitsGlyphsAreDistinct(t *testing.T) {
	// The mean image of class a must differ substantially from class b:
	// otherwise the task is unlearnable.
	d := NewDigits(4000, 3)
	mean := make([][]float64, 10)
	count := make([]int, 10)
	for c := range mean {
		mean[c] = make([]float64, d.FeatureLen())
	}
	x := make([]float32, d.FeatureLen())
	for i := 0; i < d.Len(); i++ {
		label := d.Sample(i, x)
		for j, v := range x {
			mean[label][j] += float64(v)
		}
		count[label]++
	}
	for c := range mean {
		for j := range mean[c] {
			mean[c][j] /= float64(count[c])
		}
	}
	dist := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return s
	}
	if d01 := dist(mean[1], mean[8]); d01 < 1 {
		t.Errorf("classes 1 and 8 nearly identical: dist=%g", d01)
	}
	if d25 := dist(mean[2], mean[5]); d25 < 0.1 {
		t.Errorf("classes 2 and 5 nearly identical: dist=%g", d25)
	}
}

func TestImagesDeterministicAndLabeled(t *testing.T) {
	im := NewImages(200, 9)
	a := make([]float32, im.FeatureLen())
	b := make([]float32, im.FeatureLen())
	if im.Sample(3, a) != im.Sample(3, b) {
		t.Fatal("labels differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("features differ")
		}
	}
	if im.FeatureLen() != 3*32*32 {
		t.Fatalf("FeatureLen = %d", im.FeatureLen())
	}
}

// refImagesSample is Images.Sample as it was written before the grating
// was computed once per pixel: Sin once per channel.
func refImagesSample(im *Images, i int, x []float32) int {
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
	for c := 0; c < 3; c++ {
		for yy := 0; yy < 32; yy++ {
			for xx := 0; xx < 32; xx++ {
				u := cos*float64(xx) + sin*float64(yy)
				v := math.Sin(u*freq+phase)*0.5 + colorBias[c]
				v += rng.NormFloat64() * 0.15
				x[(c*32+yy)*32+xx] = float32(v)
			}
		}
	}
	return label
}

// TestImagesMatchPerChannelReference: computing the grating once per pixel
// moves no bit of any sample.
func TestImagesMatchPerChannelReference(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		im := NewImages(4096, seed)
		got := make([]float32, im.FeatureLen())
		want := make([]float32, im.FeatureLen())
		for i := 0; i < im.N; i += 13 {
			if gl, wl := im.Sample(i, got), refImagesSample(im, i, want); gl != wl {
				t.Fatalf("seed %d sample %d: label %d, want %d", seed, i, gl, wl)
			}
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("seed %d sample %d: value %d is %g, want %g", seed, i, j, got[j], want[j])
				}
			}
		}
	}
}

func TestMakeBatchShapes(t *testing.T) {
	im := NewImages(100, 1)
	b := MakeBatch(im, []int{0, 5, 9})
	if b.X.Shape[0] != 3 || b.X.Shape[1] != 3 || b.X.Shape[2] != 32 || b.X.Shape[3] != 32 {
		t.Fatalf("batch shape %v", b.X.Shape)
	}
	if len(b.Labels) != 3 {
		t.Fatalf("labels %v", b.Labels)
	}
}

func TestLoaderBatches(t *testing.T) {
	d := NewDigits(50, 2)
	l := NewLoader(d, 8, rand.New(rand.NewSource(1)))
	b1 := l.Next()
	b2 := l.Next()
	if b1.X.Shape[0] != 8 || b2.X.Shape[0] != 8 {
		t.Fatal("wrong batch size")
	}
	// Random loader should (almost surely) differ between draws.
	same := true
	for i := range b1.X.Data {
		if b1.X.Data[i] != b2.X.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("two random batches identical")
	}
}

func TestPartitionCoversDataset(t *testing.T) {
	d := NewDigits(103, 5)
	total := 0
	var first, last *Partition
	for i := 0; i < 4; i++ {
		p := NewPartition(d, i, 4)
		total += p.Len()
		if i == 0 {
			first = p
		}
		if i == 3 {
			last = p
		}
	}
	if total != d.Len() {
		t.Fatalf("partitions cover %d of %d", total, d.Len())
	}
	// Partition 0 sample 0 must equal dataset sample 0; last partition's
	// last sample must equal dataset's last sample.
	a := make([]float32, d.FeatureLen())
	b := make([]float32, d.FeatureLen())
	if first.Sample(0, a) != d.Sample(0, b) {
		t.Error("partition 0 misaligned")
	}
	if last.Sample(last.Len()-1, a) != d.Sample(d.Len()-1, b) {
		t.Error("last partition misaligned")
	}
}

func TestPartitionsDisjoint(t *testing.T) {
	d := NewDigits(100, 6)
	p0 := NewPartition(d, 0, 2)
	p1 := NewPartition(d, 1, 2)
	a := make([]float32, d.FeatureLen())
	b := make([]float32, d.FeatureLen())
	// Same local index in different shards maps to different global samples.
	p0.Sample(0, a)
	p1.Sample(0, b)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("shards overlap")
	}
}
