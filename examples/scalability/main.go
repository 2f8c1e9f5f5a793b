// Scalability: sweep the cluster size and compare the gradient-exchange
// time of the worker-aggregator baseline against the INCEPTIONN ring, with
// both the calibrated network simulator and the paper's α-β-γ analytic
// model (the Fig. 15 experiment, extended to larger clusters).
package main

import (
	"fmt"

	"inceptionn/internal/models"
	"inceptionn/internal/trainsim"
)

func main() {
	spec := models.ResNet50
	analytic := trainsim.Default().Net

	fmt.Printf("gradient exchange time for %s (%d MB of gradients)\n\n",
		spec.Name, spec.ParamBytes/(1<<20))
	fmt.Printf("%6s | %12s %12s | %12s %12s | %8s\n",
		"nodes", "sim WA", "sim INC", "analytic WA", "analytic INC", "speedup")
	for _, nodes := range []int{2, 4, 6, 8, 12, 16, 24, 32} {
		cfg := trainsim.Default()
		cfg.Workers = nodes
		wa := cfg.ExchangeTime(trainsim.WA, spec)
		inc := cfg.ExchangeTime(trainsim.INC, spec)
		fmt.Printf("%6d | %11.3fs %11.3fs | %11.3fs %11.3fs | %7.2fx\n",
			nodes, wa, inc,
			analytic.AnalyticWorkerAggregator(nodes, spec.ParamBytes),
			analytic.AnalyticRing(nodes, spec.ParamBytes),
			wa/inc)
	}
	fmt.Printf("\nring asymptote (p->inf bandwidth terms): %.3fs\n",
		analytic.AnalyticRingAsymptote(spec.ParamBytes))
	fmt.Println("WA grows linearly with cluster size; the ring saturates - the paper's Fig. 15.")
}
