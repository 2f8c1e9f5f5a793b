package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// repeat is one run of a workload from iteration 0 in a fresh fabric:
// warm-up iterations, then the timed ones. All timestamps are taken by the
// harness, in worker 0's once-per-iteration hook; the program is not asked
// what time it is.
type repeat struct {
	w     workload
	begin time.Time   // set-up starts here (process start for the first repeat)
	hooks []time.Time // hooks[i] is worker 0's hook call of iteration i
	seen  int         // hooks called; less than len(hooks) when the run failed
	// Runtime counters at the two ends of the timed region.
	mem0, mem1 runtime.MemStats
	res        runResult
	err        error
}

// runRepeat drives w once. The timed region runs from the hook of the last
// warm-up iteration to the hook of the last iteration, so it holds exactly
// w.timed hook-to-hook intervals, each one exchange, one update and one
// local gradient long.
func runRepeat(w workload, in inputs, begin time.Time, d decor) *repeat {
	iters := w.warmup + w.timed
	r := &repeat{w: w, begin: begin, hooks: make([]time.Time, iters)}
	first, last := w.warmup-1, iters-1
	hook := func(iter int) {
		if iter == first {
			// Stops the world briefly; charged to warm-up, not the timed region.
			runtime.ReadMemStats(&r.mem0)
		}
		r.hooks[iter] = time.Now()
		r.seen++
		if iter == last {
			runtime.ReadMemStats(&r.mem1)
		}
	}
	r.res, r.err = runTraining(w, in, iters, hook, d)
	if r.err == nil && r.seen != iters {
		r.err = fmt.Errorf("perf: %s: hook ran %d times in %d iterations", w.name, r.seen, iters)
	}
	return r
}

// timedStart and timedEnd bound the timed region.
func (r *repeat) timedStart() time.Time { return r.hooks[r.w.warmup-1] }
func (r *repeat) timedEnd() time.Time   { return r.hooks[len(r.hooks)-1] }

// intervals returns the timed hook-to-hook intervals in seconds.
func (r *repeat) intervals() []float64 {
	out := make([]float64, 0, r.w.timed)
	for i := r.w.warmup; i < len(r.hooks); i++ {
		out = append(out, r.hooks[i].Sub(r.hooks[i-1]).Seconds())
	}
	return out
}

// iterWindow is how many consecutive iterations one iter_s_p50 sample spans.
// Four workers share the box's cores, so the instant worker 0 reaches its
// hook swings by up to a whole compute phase with its place in the run
// queue: single hook-to-hook intervals of a steady 83 ms iteration read
// anywhere from 50 to 127 ms. That swing is at the two ends of a window, not
// inside it, so a window of k iterations divides it by k.
const iterWindow = 4

// iterSeconds returns the time per iteration over every window of
// iterWindow consecutive timed iterations.
func (r *repeat) iterSeconds() []float64 {
	k := iterWindow
	if r.w.timed < k {
		k = r.w.timed
	}
	var out []float64
	for i := r.w.warmup - 1; i+k < len(r.hooks); i++ {
		out = append(out, r.hooks[i+k].Sub(r.hooks[i]).Seconds()/float64(k))
	}
	return out
}

// endToEndValues are the end-to-end metrics of one repeat, except
// peak_rss_mb, which belongs to the process.
func (r *repeat) endToEndValues() values {
	wall := r.timedEnd().Sub(r.timedStart()).Seconds()
	return values{
		"iter_s_p50":          median(r.iterSeconds()),
		"samples_per_s":       float64(workers*r.w.batch*r.w.timed) / wall,
		"wire_bytes_per_iter": float64(r.res.wireBytes) / float64(len(r.hooks)),
		"setup_s":             r.timedStart().Sub(r.begin).Seconds(),
	}
}

// runValues are the per-layer metrics read off an untraced repeat: the
// tail, the always-on compute/exchange split and the Go runtime's share.
func (r *repeat) runValues() values {
	n := float64(r.w.timed)
	busy := r.res.computeSeconds + r.res.commSeconds
	return values{
		"train.final_loss":             r.res.finalLoss,
		"train.iter_s_p95":             percentile(r.intervals(), 95),
		"train.compute_share":          r.res.computeSeconds / busy,
		"train.comm_share":             r.res.commSeconds / busy,
		"train.straggler_wait_share":   r.res.stragglerWaitSeconds / busy,
		"runtime.alloc_mb_per_iter":    float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc) / n / 1e6,
		"runtime.allocs_per_iter":      float64(r.mem1.Mallocs-r.mem0.Mallocs) / n,
		"runtime.gc_pause_ms_per_iter": float64(r.mem1.PauseTotalNs-r.mem0.PauseTotalNs) / n / 1e6,
		"runtime.gc_cycles_per_iter":   float64(r.mem1.NumGC-r.mem0.NumGC) / n,
	}
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("perf: VmHWM: %w", err)
			}
			return kb / 1000, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("perf: no VmHWM line in /proc/self/status")
}

// ops counts attempted and failed operations: one training iteration or
// one correctness comparison each.
type ops struct {
	attempted, failed int
	notes             []string // one line per failure
}

func (o *ops) iterations(r *repeat) {
	o.attempted += len(r.hooks)
	if r.err != nil {
		lost := len(r.hooks) - r.seen
		if lost < 1 {
			lost = 1
		}
		o.failed += lost
		o.notes = append(o.notes, r.err.Error())
	}
}

func (o *ops) compare(ok bool, format string, args ...interface{}) {
	o.attempted++
	if !ok {
		o.failed++
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}
