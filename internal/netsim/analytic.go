package netsim

import "math"

// AnalyticWorkerAggregator returns T_WA of the analytical
// collective-communication cost model the paper adopts (Sec. VIII-D, after
// Thakur et al., IJHPCA 2005) to explain the scalability results of
// Fig. 15:
//
//	T_WA  = (1 + log₂ p)·α + (p + log₂ p)·n·β + (p − 1)·n·γ
//	T_INC = 2(p − 1)·α + 2·((p − 1)/p)·n·β + ((p − 1)/p)·n·γ
//
// where p is the number of workers and n the model size in bytes. The
// constants are read off the same Params as the simulated exchanges:
// α = Latency (per-message link latency), β = 1/LineRate (per-byte
// transfer time), γ = 1/SumRate (per-byte sum-reduction time). The WA time
// grows linearly in p (both communication and summation congest the
// aggregator) while in T_INC the p-dependence cancels as p grows, which is
// why the INCEPTIONN exchange stays flat in Fig. 15.
func (p Params) AnalyticWorkerAggregator(workers int, n int64) float64 {
	beta, gamma := 1/p.LineRate, 1/p.SumRate
	logp := math.Log2(float64(workers))
	nf := float64(n)
	return (1+logp)*p.Latency + (float64(workers)+logp)*nf*beta + float64(workers-1)*nf*gamma
}

// AnalyticRing returns T_INC (see AnalyticWorkerAggregator) for the given
// workers and n model bytes.
func (p Params) AnalyticRing(workers int, n int64) float64 {
	beta, gamma := 1/p.LineRate, 1/p.SumRate
	pf := float64(workers)
	nf := float64(n)
	frac := (pf - 1) / pf
	return 2*(pf-1)*p.Latency + 2*frac*nf*beta + frac*nf*gamma
}

// AnalyticRingAsymptote returns the p→∞ limit of T_INC's bandwidth terms,
// 2nβ + nγ, showing the exchange time saturates instead of growing.
func (p Params) AnalyticRingAsymptote(n int64) float64 {
	beta, gamma := 1/p.LineRate, 1/p.SumRate
	return 2*float64(n)*beta + float64(n)*gamma
}
