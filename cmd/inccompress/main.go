// Command inccompress runs the INCEPTIONN lossy codec over a file of raw
// little-endian float32 values (or a generated gradient-shaped stream) and
// reports the compression ratio, bitwidth distribution, and error bound
// compliance.
//
// Compressed files written with -out carry a 16-byte header
// (magic "INCF", bound exponent, value count, exact bit length) so they are
// self-describing; -decompress restores the float32 payload.
//
// Usage:
//
//	inccompress -in gradients.f32 -bound 10 -out gradients.incf
//	inccompress -gen 1000000 -bound 8
//	inccompress -decompress gradients.incf -out restored.f32
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"inceptionn/internal/bitio"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/frame"
)

func main() {
	in := flag.String("in", "", "input file of raw little-endian float32 values")
	gen := flag.Int("gen", 0, "generate N gradient-shaped values instead of reading a file")
	boundExp := flag.Int("bound", 10, "error bound exponent E (bound 2^-E)")
	seed := flag.Int64("seed", 1, "seed for -gen")
	out := flag.String("out", "", "optional output file (compressed container, or raw floats with -decompress)")
	decompress := flag.String("decompress", "", "decompress a container written by -out and exit")
	flag.Parse()

	if *decompress != "" {
		if err := runDecompress(*decompress, *out); err != nil {
			fmt.Fprintln(os.Stderr, "inccompress:", err)
			os.Exit(1)
		}
		return
	}

	bound, err := fpcodec.NewBound(*boundExp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "inccompress:", err)
		os.Exit(2)
	}

	var vals []float32
	switch {
	case *gen > 0:
		vals = generate(*gen, *seed)
	case *in != "":
		raw, err := os.ReadFile(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "inccompress:", err)
			os.Exit(1)
		}
		if len(raw)%4 != 0 {
			fmt.Fprintf(os.Stderr, "inccompress: %s is %d bytes, not float32-aligned\n", *in, len(raw))
			os.Exit(1)
		}
		vals = make([]float32, len(raw)/4)
		frame.F32s(vals, raw)
	default:
		fmt.Fprintln(os.Stderr, "inccompress: need -in FILE or -gen N")
		os.Exit(2)
	}

	w := bitio.NewWriter(len(vals))
	fpcodec.CompressStream(w, vals, bound)
	dec := make([]float32, len(vals))
	if err := fpcodec.DecompressStream(bitio.NewReader(w.Bytes(), w.Len()), dec, bound); err != nil {
		fmt.Fprintln(os.Stderr, "inccompress: roundtrip:", err)
		os.Exit(1)
	}

	var st fpcodec.TagStats
	st.Observe(vals, bound)
	var maxErr float64
	violations := 0
	for i := range vals {
		if fpcodec.TagOf(vals[i], bound) == fpcodec.TagNone {
			continue
		}
		e := math.Abs(float64(dec[i]) - float64(vals[i]))
		if e > maxErr {
			maxErr = e
		}
		if e > bound.MaxError() {
			violations++
		}
	}

	fmt.Printf("values:            %d\n", len(vals))
	fmt.Printf("bound:             %v (max error %.3e)\n", bound, bound.MaxError())
	fmt.Printf("uncompressed:      %d bytes\n", 4*len(vals))
	fmt.Printf("compressed:        %d bytes (%d bits)\n", len(w.Bytes()), w.Len())
	fmt.Printf("ratio:             %.2fx\n", fpcodec.Ratio(vals, bound))
	fmt.Printf("observed max err:  %.3e (violations: %d)\n", maxErr, violations)
	fmt.Printf("bitwidth classes:  2b %.1f%%  10b %.1f%%  18b %.1f%%  34b %.1f%%\n",
		100*st.Fraction(fpcodec.TagZero), 100*st.Fraction(fpcodec.Tag8),
		100*st.Fraction(fpcodec.Tag16), 100*st.Fraction(fpcodec.TagNone))

	if *out != "" {
		container := encodeContainer(bound, len(vals), w.Bytes(), w.Len())
		if err := os.WriteFile(*out, container, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "inccompress:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d bytes)\n", *out, len(container))
	}
	if violations > 0 {
		os.Exit(1)
	}
}

const containerMagic = 0x494E4346 // "INCF"

// generate draws n gradient-shaped values: mostly tiny, one in ten larger.
func generate(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float32, n)
	for i := range vals {
		if rng.Intn(10) == 0 {
			vals[i] = float32(rng.NormFloat64() * 0.1)
		} else {
			vals[i] = float32(rng.NormFloat64() * 0.002)
		}
	}
	return vals
}

// encodeContainer prefixes a compressed stream with the 16-byte INCF header.
func encodeContainer(bound fpcodec.Bound, count int, stream []byte, bits int) []byte {
	b := frame.AppendU32(make([]byte, 0, 16+len(stream)), containerMagic)
	b = frame.AppendU32(frame.AppendU32(frame.AppendU32(b, uint32(bound.Exp())), uint32(count)), uint32(bits))
	return append(b, stream...)
}

// runDecompress restores a container to raw little-endian float32 bytes.
func runDecompress(path, out string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	r := frame.NewReader(bytes.NewReader(raw))
	magic, exp, count, bits := r.U32(), int(r.U32()), int(r.U32()), int(r.U32())
	if r.Err() != nil || magic != containerMagic {
		return fmt.Errorf("%s is not an inccompress container", path)
	}
	bound, err := fpcodec.NewBound(exp)
	if err != nil {
		return err
	}
	stream := raw[16:]
	if bits > 8*len(stream) {
		return fmt.Errorf("%s declares %d bits with %d payload bytes", path, bits, len(stream))
	}
	if err := fpcodec.CheckStreamBits(count, bits); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	vals := make([]float32, count)
	if err := fpcodec.DecompressStream(bitio.NewReader(stream, bits), vals, bound); err != nil {
		return err
	}
	if out == "" {
		fmt.Printf("decompressed %d values (bound %v); pass -out FILE to save\n", count, bound)
		return nil
	}
	if err := os.WriteFile(out, frame.AppendF32s(nil, vals), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d values, bound %v)\n", out, count, bound)
	return nil
}
