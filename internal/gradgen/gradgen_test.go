package gradgen

import (
	"math"
	"testing"

	"inceptionn/internal/fpcodec"
	"inceptionn/internal/trainsim"
)

func TestNormalize(t *testing.T) {
	f := ClassFractions{Zero: 2, Small: 1, Large: 1, NoCompress: 0}.Normalize()
	if math.Abs(f.Zero-0.5) > 1e-12 || math.Abs(f.Small-0.25) > 1e-12 {
		t.Fatalf("normalized %+v", f)
	}
	degenerate := ClassFractions{}.Normalize()
	if degenerate.Zero != 1 {
		t.Fatalf("degenerate %+v", degenerate)
	}
}

// TestGeneratorHitsPrescribedFractions: the codec must classify the
// generated stream with the prescribed probabilities.
func TestGeneratorHitsPrescribedFractions(t *testing.T) {
	want := ClassFractions{Zero: 0.749, Small: 0.039, Large: 0.211, NoCompress: 0.001}
	g := New(fpcodec.MustBound(10), want, 1)
	got, _ := g.Validate(300000)
	if math.Abs(got.Zero-want.Zero) > 0.01 ||
		math.Abs(got.Small-want.Small) > 0.01 ||
		math.Abs(got.Large-want.Large) > 0.01 ||
		math.Abs(got.NoCompress-want.NoCompress) > 0.005 {
		t.Fatalf("got %+v, want ~%+v", got, want)
	}
}

// TestFullSizeModelRatiosMatchPaper: generating streams from each paper
// Table III row and compressing them with the real codec must reproduce
// the row's implied compression ratio — the end-to-end validation of the
// Fig. 14 full-size entries.
func TestFullSizeModelRatiosMatchPaper(t *testing.T) {
	for name, rows := range trainsim.PaperTableIII {
		for e, row := range rows {
			g, err := FromTableIII(e, row.F2, row.F10, row.F18, row.F34, int64(e))
			if err != nil {
				t.Fatal(err)
			}
			_, ratio := g.Validate(200000)
			want := row.Ratio()
			if math.Abs(ratio-want)/want > 0.05 {
				t.Errorf("%s E=%d: measured ratio %.2f, Table III implies %.2f",
					name, e, ratio, want)
			}
		}
	}
}

func TestValuesRespectClassIntervals(t *testing.T) {
	bound := fpcodec.MustBound(10)
	g := New(bound, ClassFractions{Small: 1}, 2)
	for i := 0; i < 10000; i++ {
		v := g.Next()
		if tag := fpcodec.TagOf(v, bound); tag != fpcodec.Tag8 {
			t.Fatalf("value %g classified %v, want Tag8", v, tag)
		}
	}
	g = New(bound, ClassFractions{NoCompress: 1}, 3)
	for i := 0; i < 1000; i++ {
		if tag := fpcodec.TagOf(g.Next(), bound); tag != fpcodec.TagNone {
			t.Fatal("NoCompress class leaked")
		}
	}
}

// TestCoarseBoundDegeneracy: at E=6 the 18-bit class cannot exist; the
// generator folds it into the 8-bit class instead of producing impossible
// values.
func TestCoarseBoundDegeneracy(t *testing.T) {
	bound := fpcodec.MustBound(6)
	g := New(bound, ClassFractions{Large: 1}, 4)
	for i := 0; i < 5000; i++ {
		if tag := fpcodec.TagOf(g.Next(), bound); tag == fpcodec.Tag16 {
			t.Fatal("Tag16 produced at E=6")
		}
	}
}

func TestFromTableIIIValidation(t *testing.T) {
	if _, err := FromTableIII(99, 1, 0, 0, 0, 1); err == nil {
		t.Fatal("expected error for invalid bound")
	}
}

// Validate generates n values and reports the achieved class fractions and
// compression ratio, for closing the loop against the prescription.
func (g *Generator) Validate(n int) (got ClassFractions, ratio float64) {
	stream := g.Stream(n)
	var st fpcodec.TagStats
	st.Observe(stream, g.Bound)
	return ClassFractions{
		Zero:       st.Fraction(fpcodec.TagZero),
		Small:      st.Fraction(fpcodec.Tag8),
		Large:      st.Fraction(fpcodec.Tag16),
		NoCompress: st.Fraction(fpcodec.TagNone),
	}, fpcodec.Ratio(stream, g.Bound)
}
