package tensor

import "inceptionn/internal/par"

// The axpy kernels and the finiteness guard run eight lanes at a time in
// AVX2 (kernel_amd64.s) over a row's whole 8-float blocks and leave the
// rest to the portable bodies in tensor.go. Each lane computes
// d + a0·b0 + a1·b1 + … as one VMULPS and one VADDPS per term, in the
// Go chain's order and never fused, which is the MULSS + ADDSS the
// compiler emits for the Go loop: the two paths are bit-identical
// (DESIGN.md §8, "the AVX2 lanes"). MatMulTransB's dot form runs in lanes
// across 16-row panels of a, each lane dot4's chain (matMulTransBLanes).

// useAVX2 selects the AVX2 lanes: set once from the CPU, and by tests to
// run the differential tables on both paths.
var useAVX2 = par.HasAVX2()

// allFinite is allFiniteGo with x's whole 8-float blocks summed in AVX2
// lanes, in another order: either sum is non-finite if an element is.
func allFinite(x []float32) bool {
	var s float32
	if n := len(x) &^ 7; useAVX2 && n > 0 {
		s = sumAVX2(&x[0], n)
		x = x[n:]
	}
	return s-s == 0 && allFiniteGo(x)
}

// axpy4…axpy1 are axpy4Go…axpy1Go with d's whole 8-float blocks in AVX2
// lanes and the rest in the Go loop.
func axpy4(d, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	b0, b1, b2, b3 = b0[:len(d)], b1[:len(d)], b2[:len(d)], b3[:len(d)]
	if n := len(d) &^ 7; useAVX2 && n > 0 {
		axpy4AVX2(&d[0], &b0[0], &b1[0], &b2[0], &b3[0], n, a0, a1, a2, a3)
		d, b0, b1, b2, b3 = d[n:], b0[n:], b1[n:], b2[n:], b3[n:]
	}
	axpy4Go(d, b0, b1, b2, b3, a0, a1, a2, a3)
}

func axpy3(d, b0, b1, b2 []float32, a0, a1, a2 float32) {
	b0, b1, b2 = b0[:len(d)], b1[:len(d)], b2[:len(d)]
	if n := len(d) &^ 7; useAVX2 && n > 0 {
		axpy3AVX2(&d[0], &b0[0], &b1[0], &b2[0], n, a0, a1, a2)
		d, b0, b1, b2 = d[n:], b0[n:], b1[n:], b2[n:]
	}
	axpy3Go(d, b0, b1, b2, a0, a1, a2)
}

func axpy2(d, b0, b1 []float32, a0, a1 float32) {
	b0, b1 = b0[:len(d)], b1[:len(d)]
	if n := len(d) &^ 7; useAVX2 && n > 0 {
		axpy2AVX2(&d[0], &b0[0], &b1[0], n, a0, a1)
		d, b0, b1 = d[n:], b0[n:], b1[n:]
	}
	axpy2Go(d, b0, b1, a0, a1)
}

func axpy1(d, b []float32, a float32) {
	b = b[:len(d)]
	if n := len(d) &^ 7; useAVX2 && n > 0 {
		axpy1AVX2(&d[0], &b[0], n, a)
		d, b = d[n:], b[n:]
	}
	axpy1Go(d, b, a)
}

// add is addGo with d's whole 8-float blocks in axpy1's AVX2 lanes at
// coefficient 1: each lane's VMULPS takes 1·s[i], which is s[i] (a
// signalling NaN comes out quieted, as the add would quiet it), and its
// VADDPS adds that to d[i] with d the first operand, as addGo does.
func add(d, s []float32) {
	s = s[:len(d)]
	if n := len(d) &^ 7; useAVX2 && n > 0 {
		axpy1AVX2(&d[0], &s[0], n, 1)
		d, s = d[n:], s[n:]
	}
	addGo(d, s)
}

// panelRows is the height of a panel of a in matMulTransBLanes, and
// panelDepth the most of a's columns one panel holds at a time: 16 KB on
// the stack.
const panelRows, panelDepth = 16, 256

// matMulTransBLanes sets dd (m×n) to ad (m×k) times bd (n×k) transposed in
// AVX2 lanes across a's rows, and reports false, touching nothing, where
// there are none (no AVX2, or k = 0). Each output is dot4's chain over
// every term, ±0 coefficients included: with b finite a ±0 term changes
// no bit, and with b not finite the dense sum is the reference (DESIGN.md
// §8, "the dot form in lanes"). Shards take whole groups of four rows of
// b and pack a themselves, so an output's arithmetic does not depend on
// its shard.
func matMulTransBLanes(dd, ad, bd []float32, m, k, n int) bool {
	if !useAVX2 || k == 0 {
		return false
	}
	par.For((n+3)/4, par.GrainFor(2*k*4*m), func(lo, hi int) {
		transBPanels(dd, ad, bd, m, k, n, 4*lo, min(4*hi, n))
	})
	return true
}

// transBPanels computes the columns [jlo, jhi) of dd = ad·bdᵀ. a is packed
// panelRows rows by at most panelDepth columns at a time into a stack
// panel, p-major: panel[16p+r] = a[i0+r][p0+p], rows past m zero. Each
// output carries its running sum from one block of columns to the next
// in dd, so it takes its terms in ascending p across the blocks.
func transBPanels(dd, ad, bd []float32, m, k, n, jlo, jhi int) {
	var panel [panelRows * panelDepth]float32
	var acc [4 * panelRows]float32
	for i0 := 0; i0 < m; i0 += panelRows {
		rows := min(panelRows, m-i0)
		for p0 := 0; p0 < k; p0 += panelDepth {
			kb := min(panelDepth, k-p0)
			pl := panel[:panelRows*kb]
			packPanel(pl, ad[i0*k+p0:], rows, k)
			j := jlo
			for ; j+4 <= jhi; j += 4 {
				loadSums(&acc, dd, i0, rows, n, j, 4, p0)
				b := bd[j*k+p0:]
				dotPanel4AVX2(&pl[0], &b[:kb][0], &b[k:][:kb][0], &b[2*k:][:kb][0], &b[3*k:][:kb][0],
					kb, &acc)
				storeSums(&acc, dd, i0, rows, n, j, 4)
			}
			for ; j < jhi; j++ {
				loadSums(&acc, dd, i0, rows, n, j, 1, p0)
				dotPanel1AVX2(&pl[0], &bd[j*k+p0:][:kb][0], kb, (*[panelRows]float32)(acc[:panelRows]))
				storeSums(&acc, dd, i0, rows, n, j, 1)
			}
		}
	}
}

// packPanel packs the first len(pl)/16 columns of a's first rows rows
// (rows k floats apart) p-major into pl: pl[16p+r] = a[r·k+p], and zero
// for r ≥ rows.
func packPanel(pl, a []float32, rows, k int) {
	if rows < panelRows {
		clear(pl)
	}
	for p := 0; p < len(pl)/panelRows; p++ {
		col := pl[panelRows*p:][:rows]
		for r := range col {
			col[r] = a[r*k+p]
		}
	}
}

// loadSums sets acc[16c+r], c < cols, to the running sum of output
// (i0+r, j+c): +0 before the first block (p0 = 0), dd's element after it.
// Rows past the panel's last are left as they are; their lanes are never
// stored.
func loadSums(acc *[4 * panelRows]float32, dd []float32, i0, rows, n, j, cols, p0 int) {
	if p0 == 0 {
		clear(acc[:panelRows*cols])
		return
	}
	for r := range rows {
		d := dd[(i0+r)*n+j:]
		if cols == 4 {
			acc[r], acc[16+r], acc[32+r], acc[48+r] = d[0], d[1], d[2], d[3]
		} else {
			acc[r] = d[0]
		}
	}
}

// storeSums writes loadSums' sums back to dd.
func storeSums(acc *[4 * panelRows]float32, dd []float32, i0, rows, n, j, cols int) {
	for r := range rows {
		d := dd[(i0+r)*n+j:]
		if cols == 4 {
			d[0], d[1], d[2], d[3] = acc[r], acc[16+r], acc[32+r], acc[48+r]
		} else {
			d[0] = acc[r]
		}
	}
}

// The assembly kernels take n > 0, a multiple of 8, and rows of at least n
// floats; the wrappers above cut the rows to len(d) first, so a short row
// panics as it does in the Go loops.

//go:noescape
func axpy4AVX2(d, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32)

//go:noescape
func axpy3AVX2(d, b0, b1, b2 *float32, n int, a0, a1, a2 float32)

//go:noescape
func axpy2AVX2(d, b0, b1 *float32, n int, a0, a1 float32)

//go:noescape
func axpy1AVX2(d, b *float32, n int, a float32)

// dotPanel4AVX2 continues the running sums acc[16c+r] of a panel's row r
// against b_c over k > 0 terms: acc[16c+r] += panel[16p+r]·b_c[p] in
// ascending p, each product rounded before it is added. dotPanel1AVX2 is
// the same against one row, acc[r].
//
//go:noescape
func dotPanel4AVX2(panel, b0, b1, b2, b3 *float32, k int, acc *[4 * panelRows]float32)

//go:noescape
func dotPanel1AVX2(panel, b *float32, k int, acc *[panelRows]float32)

// sumAVX2 returns the sum of x[0:n] in some order: NaN or ±Inf if one of
// them is.
//
//go:noescape
func sumAVX2(x *float32, n int) float32
