package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"inceptionn/internal/par"
)

func TestNewAndShape(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 || len(x.Shape) != 3 || x.Shape[0] != 2 || x.Shape[1] != 3 || x.Shape[2] != 4 {
		t.Fatalf("shape accessors broken: %v len=%d", x.Shape, x.Len())
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New not zero-filled")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 0, 3)
}

func TestFromSliceAndReshape(t *testing.T) {
	d := []float32{1, 2, 3, 4, 5, 6}
	x := FromSlice(d, 2, 3)
	if x.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %g", x.At(1, 2))
	}
	y := x.Reshape(3, 2)
	y.Set(0, 1, 42)
	if x.Data[1] != 42 {
		t.Fatal("Reshape must share data")
	}
	c := x.Clone()
	c.Data[0] = -1
	if x.Data[0] == -1 {
		t.Fatal("Clone must copy data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{10, 20, 30}, 3)
	a.AddInPlace(b)
	if a.Data[2] != 33 {
		t.Fatalf("AddInPlace: %v", a.Data)
	}
	a.Fill(7)
	if a.Data[2] != 7 {
		t.Fatal("Fill failed")
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			out.Set(i, j, float32(s))
		}
	}
	return out
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {16, 16, 16}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := New(m, k), New(k, n)
		a.FillRandn(rng, 1)
		b.FillRandn(rng, 1)
		want := naiveMatMul(a, b)
		got := New(m, n)
		MatMul(got, a, b)
		for i := range got.Data {
			if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
				t.Fatalf("dims %v idx %d: got %g want %g", dims, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulTransA(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	k, m, n := 6, 4, 5
	a := New(k, m) // aᵀ is m×k
	b := New(k, n)
	a.FillRandn(rng, 1)
	b.FillRandn(rng, 1)
	// Build explicit transpose and compare.
	at := New(m, k)
	for i := 0; i < k; i++ {
		for j := 0; j < m; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := naiveMatMul(at, b)
	got := New(m, n)
	MatMulTransA(got, a, b)
	for i := range got.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
			t.Fatalf("idx %d: got %g want %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, k, n := 4, 6, 5
	a := New(m, k)
	b := New(n, k) // bᵀ is k×n
	a.FillRandn(rng, 1)
	b.FillRandn(rng, 1)
	bt := New(k, n)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	want := naiveMatMul(a, bt)
	got := New(m, n)
	MatMulTransB(got, a, b)
	for i := range got.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
			t.Fatalf("idx %d: got %g want %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	check := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	check("inner", func() { MatMul(New(2, 2), New(2, 3), New(4, 2)) })
	check("dst", func() { MatMul(New(3, 3), New(2, 3), New(3, 2)) })
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: im2col is the identity layout.
	img := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	dst := New(1, 4)
	Im2Col(dst, img, 1, 1, 1, 0)
	for i, want := range []float32{1, 2, 3, 4} {
		if dst.Data[i] != want {
			t.Fatalf("idx %d: got %g want %g", i, dst.Data[i], want)
		}
	}
}

func TestIm2ColKnownValues(t *testing.T) {
	// 1 channel 3x3 image, 2x2 kernel, stride 1, no padding → 4 patches.
	img := FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	dst := New(4, 4)
	Im2Col(dst, img, 2, 2, 1, 0)
	// Row r holds kernel position r across the 4 output locations
	// (top-left, top-right, bottom-left, bottom-right).
	want := [][]float32{
		{1, 2, 4, 5}, // k(0,0)
		{2, 3, 5, 6}, // k(0,1)
		{4, 5, 7, 8}, // k(1,0)
		{5, 6, 8, 9}, // k(1,1)
	}
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if dst.At(r, c) != want[r][c] {
				t.Fatalf("(%d,%d): got %g want %g", r, c, dst.At(r, c), want[r][c])
			}
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	img := FromSlice([]float32{5}, 1, 1, 1)
	// 3x3 kernel with pad 1 on a 1x1 image: single output, center sees 5.
	dst := New(9, 1)
	Im2Col(dst, img, 3, 3, 1, 1)
	for i := 0; i < 9; i++ {
		want := float32(0)
		if i == 4 {
			want = 5
		}
		if dst.Data[i] != want {
			t.Fatalf("kernel pos %d: got %g want %g", i, dst.Data[i], want)
		}
	}
}

// TestCol2ImAdjoint verifies <Im2Col(x), y> == <x, Col2Im(y)> — the adjoint
// identity that makes the convolution backward pass correct.
func TestCol2ImAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c, h, w, kh, kw, stride, pad := 2, 5, 6, 3, 2, 2, 1
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	x := New(c, h, w)
	x.FillRandn(rng, 1)
	y := New(c*kh*kw, outH*outW)
	y.FillRandn(rng, 1)

	ix := New(c*kh*kw, outH*outW)
	Im2Col(ix, x, kh, kw, stride, pad)
	lhs := ix.Dot(y)

	cy := New(c, h, w)
	Col2Im(cy, transposed(y), kh, kw, stride, pad)
	rhs := x.Dot(cy)

	if math.Abs(lhs-rhs) > 1e-3*(math.Abs(lhs)+1) {
		t.Fatalf("adjoint identity violated: %g vs %g", lhs, rhs)
	}
}

func TestConvOutSize(t *testing.T) {
	if got := ConvOutSize(32, 3, 1, 1); got != 32 {
		t.Errorf("same-conv: %d", got)
	}
	if got := ConvOutSize(32, 2, 2, 0); got != 16 {
		t.Errorf("pool: %d", got)
	}
	if got := ConvOutSize(227, 11, 4, 0); got != 55 {
		t.Errorf("alexnet conv1: %d", got)
	}
}

// TestQuickMatMulLinearity: MatMul is linear in its first argument.
func TestQuickMatMulLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := rng.Intn(5)+1, rng.Intn(5)+1, rng.Intn(5)+1
		a1, a2, b := New(m, k), New(m, k), New(k, n)
		a1.FillRandn(rng, 1)
		a2.FillRandn(rng, 1)
		b.FillRandn(rng, 1)
		sum := a1.Clone()
		sum.AddInPlace(a2)
		r1, r2, rs := New(m, n), New(m, n), New(m, n)
		MatMul(r1, a1, b)
		MatMul(r2, a2, b)
		MatMul(rs, sum, b)
		for i := range rs.Data {
			if math.Abs(float64(rs.Data[i]-(r1.Data[i]+r2.Data[i]))) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMatMulPropagatesNaNInf guards the IEEE-semantics bugfix: the old
// kernels short-circuited zero elements of a, so 0×NaN and 0×Inf — the
// signature of a diverging replica's gradients — were silently laundered
// into finite outputs instead of poisoning them.
func TestMatMulPropagatesNaNInf(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, poison := range []float32{nan, inf} {
		// a's row is all zeros; b carries the poison. Every product with
		// the poisoned b row is 0×poison, which must be NaN.
		a := FromSlice([]float32{0, 0}, 1, 2)
		b := FromSlice([]float32{poison, 1, 2, 3}, 2, 2)
		got := New(1, 2)
		MatMul(got, a, b)
		if !math.IsNaN(float64(got.Data[0])) {
			t.Errorf("MatMul: 0×%g column gave %g, want NaN", poison, got.Data[0])
		}

		// aᵀ·b with a zero column in a and poison in b.
		at := FromSlice([]float32{0, 0}, 2, 1) // k=2, m=1
		bt := FromSlice([]float32{poison, 1, 2, 3}, 2, 2)
		gotA := New(1, 2)
		MatMulTransA(gotA, at, bt)
		if !math.IsNaN(float64(gotA.Data[0])) {
			t.Errorf("MatMulTransA: 0×%g gave %g, want NaN", poison, gotA.Data[0])
		}

		// a·bᵀ with zero a row and poisoned b row.
		ab := FromSlice([]float32{0, 0}, 1, 2)
		bb := FromSlice([]float32{poison, 4}, 1, 2)
		gotB := New(1, 1)
		MatMulTransB(gotB, ab, bb)
		if !math.IsNaN(float64(gotB.Data[0])) {
			t.Errorf("MatMulTransB: 0×%g gave %g, want NaN", poison, gotB.Data[0])
		}
	}

	// NaN in a itself must survive multiplication by zero in b.
	a := FromSlice([]float32{nan}, 1, 1)
	b := FromSlice([]float32{0}, 1, 1)
	got := New(1, 1)
	MatMul(got, a, b)
	if !math.IsNaN(float64(got.Data[0])) {
		t.Errorf("MatMul: NaN×0 gave %g, want NaN", got.Data[0])
	}
}

// TestMatMulParallelBitIdentical pins the determinism contract of the
// parallel kernels: any worker count, on any kernel path, yields bit for
// bit the sequential result of the portable loops, because shards own
// disjoint output rows and each element's k-accumulation order is fixed.
func TestMatMulParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, k, n := 37, 29, 41
	a, b := New(m, k), New(k, n)
	a.FillRandn(rng, 1)
	b.FillRandn(rng, 1)
	at := New(k, m)
	at.FillRandn(rng, 1)
	bt := New(n, k)
	bt.FillRandn(rng, 1)

	type kernel struct {
		name string
		run  func(dst *Tensor)
	}
	kernels := []kernel{
		{"MatMul", func(dst *Tensor) { MatMul(dst, a, b) }},
		{"MatMulTransA", func(dst *Tensor) { MatMulTransA(dst, at, b) }},
		{"MatMulTransB", func(dst *Tensor) { MatMulTransB(dst, a, bt) }},
	}
	defer par.SetMaxWorkers(par.SetMaxWorkers(1))
	defer useKernelPath(useKernelPath("go"))
	for _, kn := range kernels {
		useKernelPath("go")
		par.SetMaxWorkers(1)
		want := New(m, n)
		kn.run(want)
		for _, path := range kernelPaths() {
			useKernelPath(path)
			for _, workers := range []int{1, 2, 5, 8} {
				par.SetMaxWorkers(workers)
				got := New(m, n)
				kn.run(got)
				for i := range got.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("%s path=%s workers=%d idx %d: %x vs %x",
							kn.name, path, workers, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// At returns the element at 2-D index (i, j); the tensor must be 2-D.
func (t *Tensor) At(i, j int) float32 {
	return t.Data[i*t.Shape[1]+j]
}

// Dot returns the inner product of the flattened tensors.
func (t *Tensor) Dot(o *Tensor) float64 {
	if len(t.Data) != len(o.Data) {
		panic("tensor: Dot size mismatch")
	}
	var s float64
	for i := range t.Data {
		s += float64(t.Data[i]) * float64(o.Data[i])
	}
	return s
}
