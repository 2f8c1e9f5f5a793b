// Quickstart: configure an INCEPTIONN system, compress a gradient vector
// with the paper's lossy codec, and estimate the full-size training
// speedup with the calibrated simulator.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"inceptionn/internal/bitio"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
	"inceptionn/internal/trainsim"
)

func main() {
	// The paper's primary configuration: four workers, error bound 2^-10.
	cfg := trainsim.Default()
	bound, err := fpcodec.NewBound(cfg.BoundExp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("INCEPTIONN: %d workers, bound %v, NIC engine model, compression on\n", cfg.Workers, bound)

	// A gradient-shaped vector: tight around zero, rare large values.
	rng := rand.New(rand.NewSource(1))
	grad := make([]float32, 100000)
	for i := range grad {
		if rng.Intn(10) == 0 {
			grad[i] = float32(rng.NormFloat64() * 0.1)
		} else {
			grad[i] = float32(rng.NormFloat64() * 0.002)
		}
	}

	w := bitio.NewWriter(len(grad))
	fpcodec.CompressStream(w, grad, bound)
	fmt.Printf("compressed %d floats: %d -> %d bytes (ratio %.1fx)\n",
		len(grad), 4*len(grad), len(w.Bytes()), fpcodec.Ratio(grad, bound))

	restored := make([]float32, len(grad))
	if err := fpcodec.DecompressStream(bitio.NewReader(w.Bytes(), w.Len()), restored, bound); err != nil {
		log.Fatal(err)
	}
	var maxErr float64
	for i := range grad {
		e := float64(restored[i] - grad[i])
		if e < 0 {
			e = -e
		}
		if e > maxErr {
			maxErr = e
		}
	}
	fmt.Printf("max reconstruction error: %.2e (guarantee %.2e)\n", maxErr, bound.MaxError())

	// Full-size estimates from the Table-II-calibrated simulator.
	fmt.Println("\nper-iteration estimates on the paper's testbed scale:")
	for _, spec := range models.Evaluated() {
		wa := cfg.IterTime(trainsim.WA, spec)
		inc := cfg.IterTime(trainsim.INCC, spec)
		fmt.Printf("  %-10s WA %7.4fs  ->  INC+C %7.4fs  (%.1fx speedup)\n",
			spec.Name, wa.Total(), inc.Total(), wa.Total()/inc.Total())
	}
}
