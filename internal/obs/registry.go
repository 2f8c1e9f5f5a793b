package obs

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The nil handle (from a
// disabled recorder) is a valid no-op target, so hot paths can hold one
// unconditionally.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the current count (0 for the nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float metric (nil-safe like Counter).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value (0 for the nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefaultBuckets are the fixed latency-histogram bucket upper bounds:
// exponential decades from 10µs to 10s, 1-2-5 spaced. Latencies above
// the last bound land in an implicit overflow bucket.
var DefaultBuckets = []time.Duration{
	10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second,
}

// Histogram is a fixed-bucket latency histogram. Observe is a bucket
// scan plus three atomic adds — no locks — so it is safe on hot paths.
type Histogram struct {
	bounds  []time.Duration // sorted upper bounds; len(buckets) = len(bounds)+1
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds (peak observed)
}

func newHistogram(bounds []time.Duration) *Histogram {
	b := append([]time.Duration(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// HistBucket is one histogram bucket in a snapshot: the count of
// observations at or below LESeconds. Observations above the last bound
// are reported in HistSnapshot.Overflow rather than as a +Inf bucket
// (infinities do not survive a JSON round trip).
type HistBucket struct {
	LESeconds float64 `json:"le_s"`
	N         int64   `json:"n"`
}

// HistSnapshot is the JSON-friendly view of a histogram. P50/P90/P99 are
// quantile estimates interpolated inside the 1-2-5 buckets: exact to within
// one bucket's width (≤2.5× at the 1-2-5 spacing), which is plenty for the
// tail-latency questions the breakdown answers, and never above MaxSeconds.
type HistSnapshot struct {
	Count      int64        `json:"count"`
	SumSeconds float64      `json:"sum_s"`
	MaxSeconds float64      `json:"max_s"`
	P50Seconds float64      `json:"p50_s,omitempty"`
	P90Seconds float64      `json:"p90_s,omitempty"`
	P99Seconds float64      `json:"p99_s,omitempty"`
	Buckets    []HistBucket `json:"buckets,omitempty"`
	Overflow   int64        `json:"overflow,omitempty"`
}

// quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket that holds rank q·count. Bucket i covers
// (bounds[i-1], bounds[i]] and the overflow bucket (last bound, max]; the
// top of either is capped by the observed maximum maxS, so the estimate
// stays inside its bucket and never exceeds maxS.
func (h *Histogram) quantile(q float64, counts []int64, count int64, maxS float64) float64 {
	rank := q * float64(count)
	var cum, lo float64
	for i, n := range counts {
		up := maxS
		if i < len(h.bounds) {
			up = h.bounds[i].Seconds()
		}
		if n > 0 && rank <= cum+float64(n) {
			// max with lo: maxS may predate a concurrent Observe.
			hi := max(lo, min(up, maxS))
			return lo + (rank-cum)/float64(n)*(hi-lo)
		}
		cum += float64(n)
		lo = up
	}
	return maxS
}

func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{
		Count:      h.count.Load(),
		SumSeconds: time.Duration(h.sum.Load()).Seconds(),
		MaxSeconds: time.Duration(h.max.Load()).Seconds(),
	}
	counts := make([]int64, len(h.buckets))
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		if i < len(h.bounds) && counts[i] > 0 {
			s.Buckets = append(s.Buckets, HistBucket{LESeconds: h.bounds[i].Seconds(), N: counts[i]})
		}
	}
	s.Overflow = counts[len(h.bounds)]
	if s.Count > 0 {
		s.P50Seconds = h.quantile(0.50, counts, s.Count, s.MaxSeconds)
		s.P90Seconds = h.quantile(0.90, counts, s.Count, s.MaxSeconds)
		s.P99Seconds = h.quantile(0.99, counts, s.Count, s.MaxSeconds)
	}
	return s
}

// Registry is the concurrency-safe metric namespace. Metric creation
// (the first lookup of a name) takes a mutex; the returned handles are
// lock-free. Look handles up once and hold them across a hot loop.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() float64),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named latency histogram with DefaultBuckets,
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(DefaultBuckets)
		r.hists[name] = h
	}
	return h
}

// Func registers a callback gauge: Snapshot calls f for the current
// value. Use it to surface counters owned by other packages (the codec's
// stream totals, for example) without plumbing a recorder through them.
func (r *Registry) Func(name string, f func() float64) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = f
}

// Snapshot returns a point-in-time flat view of every metric, keyed by
// name: counters as int64, gauges and func metrics as float64 (a NaN or
// infinite one as the string "NaN", "+Inf" or "-Inf", which JSON can
// carry and ParseSnapshot reads back), histograms as HistSnapshot. Its
// JSON encoding is the document `inctrain -metrics-out` saves; a diverged
// run's NaN train_loss is part of it.
func (r *Registry) Snapshot() map[string]interface{} {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	funcs := make(map[string]func() float64, len(r.funcs))
	for k, v := range r.funcs {
		funcs[k] = v
	}
	r.mu.Unlock()

	out := make(map[string]interface{}, len(counters)+len(gauges)+len(hists)+len(funcs))
	for k, v := range counters {
		out[k] = v.Value()
	}
	for k, v := range gauges {
		out[k] = snapshotFloat(v.Value())
	}
	for k, v := range hists {
		out[k] = v.snapshot()
	}
	for k, f := range funcs {
		out[k] = snapshotFloat(f())
	}
	return out
}

// nonFinite names the float values JSON has no number for, as a snapshot
// writes them.
var nonFinite = map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)}

// snapshotFloat returns v, or its nonFinite name if v is NaN or ±Inf.
func snapshotFloat(v float64) interface{} {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	return v
}
