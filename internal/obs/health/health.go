// Package health is the online anomaly layer over obs: a streaming
// engine that watches a run's Recorder (per-node recv waits,
// transport/elastic counters, codec gauges) with robust online
// detectors and emits typed Incident records the moment something
// degrades, instead of leaving anomalies to a post-mortem trace read.
//
// Detector families (DESIGN.md §15 has the math):
//
//   - straggler: the recv-wait inversion. In a lock-step collective a
//     slow node never shows in its own wall clock (every member's step
//     takes equally long), and not as a high recv wait either: its
//     peers' waits balloon while its own collapses, because it arrives
//     at the exchange last and waits least. The detector watches the
//     gap between the cohort's median recv wait and its minimum; when
//     the gap is sustained, the minimum-wait node is the straggler —
//     the same rule obs.AttributeCriticalPath applies post-mortem, and
//     the confirmed incident's phase is named through it.
//   - recv_wait: per-iteration cross-node median + MAD z-score on
//     per-node recv wait, EWMA-smoothed, strike-confirmed, striking only
//     high-side outliers — a minority node waiting far longer than its
//     peers marks a degraded inbound link (a uniform wait rise is the
//     straggler cascade, which the straggler family already names via
//     the inversion). Step wall clock gets no such detector: every
//     runner's collective is synchronous and equalizes it.
//   - retransmit_rate / crc_rate / suspect: rate-of-change thresholds on
//     the transport and membership counters, polled.
//   - fallback / eviction: point incidents (opened closed) for the
//     self-healing events — a confirmed switch death (pushed by the
//     runner's gate, or caught from its counter) or a member eviction
//     (caught from its counter).
//   - heartbeat_gap: the elastic heartbeat counter stalling while the
//     membership gauge says the ring is populated.
//   - compression_drift: EWMA drift of the codec's compression-ratio
//     gauge (a ratio collapse means the gradient distribution shifted or
//     a codec config regressed mid-run).
//
// The engine pairs detection with a flight recorder: the tracer's own
// bounded ring of full-fidelity spans plus the recent metric snapshots,
// dumped to a JSONL "black box" file the moment an incident opens, so
// the expensive evidence exists exactly when it matters and replays
// through the existing inctrace blame/breakdown reports.
//
// Like the rest of obs, every method on a nil *Engine is a no-op, so
// runners thread an optional engine at zero cost when health is off.
package health

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"inceptionn/internal/obs"
)

// Options is what a caller sets: the strike windows a short run needs
// shortened, the deviation gate a noisy host needs widened, and where
// dumps go. The zero value means "use the default" for every field;
// defaults are chosen so a fault-free run on a noisy shared host opens
// zero incidents. Every other detector threshold is a constant below.
type Options struct {
	// Warmup is how many analyzed iterations pass before the latency
	// detectors may strike (EWMAs still settle during warmup). Default 5.
	Warmup int
	// Consecutive is how many consecutive striking iterations confirm an
	// incident — single-iteration hiccups (GC, scheduler) never page.
	// Default 3.
	Consecutive int
	// MinStepGap is the absolute deviation floor: however small the
	// cohort's spread, a deviation under this is never anomalous.
	// Default 2ms.
	MinStepGap time.Duration
	// BlackboxDir, when set, enables flight-recorder dumps: every opened
	// incident writes one JSONL black-box file into this directory.
	BlackboxDir string
}

const (
	// zThreshold is the robust z-score (deviation over MAD-derived
	// sigma) a smoothed deviation must exceed to strike.
	zThreshold = 4.0
	// madFloor is the lower bound on the MAD-derived robust sigma, so a
	// freakishly tight cohort cannot make microsecond jitter look like a
	// 10-sigma event.
	madFloor = float64(500 * time.Microsecond)
	// ewmaAlpha smooths per-node deviations and the cohort sigma across
	// iterations.
	ewmaAlpha = 0.3
	// window is how many recent iterations of tracer spans feed the
	// critical-path naming of a confirmed straggler.
	window = 16

	// retransRate / crcRate are the polled counter rates (events/s) that
	// open a transport incident once sustained for two consecutive
	// polls — a clean loopback run's retry timers already churn a few
	// dozen retransmits/s, so the bound sits well above that baseline.
	retransRate = 200.0
	crcRate     = 20.0

	// heartbeatGap is how long the elastic heartbeat counter may stall
	// (with members present) before an incident opens.
	heartbeatGap = 5 * time.Second

	// ratioDriftPct is the relative drift of the compression-ratio gauge
	// from its EWMA baseline that opens an incident.
	ratioDriftPct = 0.25

	// blackboxSpans bounds the spans one dump carries: the newest this
	// many the tracer retains.
	blackboxSpans = 8192
	// blackboxSnaps bounds the retained pre-incident metric snapshots.
	blackboxSnaps = 4
	// maxIncidents bounds the retained incident history.
	maxIncidents = 256
)

func (o Options) withDefaults() Options {
	if o.Warmup == 0 {
		o.Warmup = 5
	}
	if o.Consecutive == 0 {
		o.Consecutive = 3
	}
	if o.MinStepGap == 0 {
		o.MinStepGap = 2 * time.Millisecond
	}
	return o
}

// Engine is the streaming health monitor for one run. Runners push step
// completions (ObserveStep) and self-healing events (NotifyFallback);
// Poll — called periodically by Start's goroutine, or explicitly —
// drains the tracer tail and checks the counter/gauge detectors. All
// methods are safe on a nil receiver and safe for concurrent use.
type Engine struct {
	rec *obs.Recorder
	o   Options

	mIncidents *obs.Counter
	mOpen      *obs.Gauge
	mPolls     *obs.Counter
	mDumps     *obs.Counter

	started time.Time

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	mu     sync.Mutex
	cursor int64 // tracer tail cursor
	flight *flightRecorder

	steps        map[int]map[int]struct{}      // iter → nodes that reported it
	recvW        map[int]map[int]time.Duration // iter → node → recv wait
	maxIter      int
	lastAnalyzed int
	itersSeen    int
	nodes        map[int]struct{} // every node that ever reported a step

	devRecv     map[int]float64 // smoothed deviation from cohort median, ns
	sigRecv     float64         // smoothed robust sigma, ns
	strikesRecv map[int]int

	devInv     float64 // smoothed recv-wait inversion gap (median − min), ns
	invNode    int     // current minimum-wait node under suspicion, -1 none
	invStrikes int     // consecutive striking iterations on invNode
	invCalm    int     // consecutive balanced iterations against a confirmed incident
	invFlip    int     // consecutive iterations a different node waited least

	prevCnt         map[string]int64
	rateStrikes     map[string]int // rate family → consecutive polls above threshold
	lastPoll        time.Time
	hbLastCount     int64
	hbLastChange    time.Time
	ratioEwma       float64
	ratioN          int
	fallbackHandled int64
	evictHandled    int64

	nextID    int                           // ids handed out = incidents ever opened
	tally     map[string][len(sevNames)]int // the same count per detector × severity
	open      map[string]*Incident
	incidents []*Incident // retained history: the newest maxIncidents
	dumps     int
}

// New returns an engine over rec (which may be nil: the push-path
// detectors still run, the span/counter ones idle). The engine registers
// its own health_* metrics into rec's registry.
func New(rec *obs.Recorder, o Options) *Engine {
	o = o.withDefaults()
	e := &Engine{
		rec:          rec,
		o:            o,
		mIncidents:   rec.Counter("health_incidents_total"),
		mOpen:        rec.Gauge("health_incidents_open"),
		mPolls:       rec.Counter("health_polls"),
		mDumps:       rec.Counter("health_blackbox_dumps"),
		started:      time.Now(),
		flight:       newFlightRecorder(blackboxSnaps),
		steps:        make(map[int]map[int]struct{}),
		recvW:        make(map[int]map[int]time.Duration),
		maxIter:      -1,
		lastAnalyzed: -1,
		devRecv:      make(map[int]float64),
		strikesRecv:  make(map[int]int),
		invNode:      -1,
		nodes:        make(map[int]struct{}),
		prevCnt:      make(map[string]int64),
		rateStrikes:  make(map[string]int),
		tally:        make(map[string][len(sevNames)]int),
		open:         make(map[string]*Incident),
	}
	// Baseline the point-event counters at construction, so the first
	// poll sees deltas relative to engine start, not absolute totals.
	if reg := rec.Registry(); reg != nil {
		for _, name := range pollCounters {
			e.prevCnt[name] = reg.Counter(name).Value()
		}
		e.hbLastCount = reg.Counter("elastic_heartbeats").Value()
		e.fallbackHandled = reg.Counter("collective_fallbacks").Value()
		e.evictHandled = reg.Counter("elastic_evictions").Value()
	}
	e.hbLastChange = e.started
	return e
}

// pollCounters are the registry counters the rate detectors watch.
var pollCounters = []string{
	"tcp_retransmits", "tcp_crc_failures", "elastic_suspects",
	"collective_fallbacks", "elastic_evictions", "elastic_heartbeats",
}

// Start launches the background poll loop (interval ≤ 0 means 500ms).
// Call Close to stop it; Start on a nil engine is a no-op.
func (e *Engine) Start(interval time.Duration) {
	if e == nil || e.stop != nil {
		return
	}
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	go func() {
		defer close(e.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				e.Poll()
			case <-e.stop:
				return
			}
		}
	}()
}

// Close stops the poll loop (if started), analyzes any still-pending
// iterations, and runs one final poll so point events (evictions,
// fallbacks) recorded after the last tick are not lost. Idempotent and
// nil-safe. Incidents still anomalous at close stay open.
func (e *Engine) Close() {
	if e == nil {
		return
	}
	e.stopOnce.Do(func() {
		if e.stop != nil {
			close(e.stop)
			<-e.done
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		e.drainLocked(func(int, int) bool { return true })
		e.pollLocked(time.Now())
	})
}

// ObserveStep reports one node's completed training iteration. The
// engine analyzes iteration i once every cohort member has reported it
// (a node records its spans before reporting the step, so by then the
// whole cohort's evidence for i is in), or once the run has moved two
// iterations past it — the ±1-skew chunked collectives never leave a
// healthy node two behind, so a missing member is dead or evicted.
// Waiting for just *some* node to report i+1 is not enough: the chunked
// ring lets workers skew by a full iteration, and judging i before the
// slowest member's recv spans land makes its peers look balanced —
// exactly the straggler evidence going missing. Close analyzes the tail.
// The step's own latency is not a signal (every runner's collective is
// synchronous and equalizes it): the call is the "iteration complete on
// this node" trigger.
func (e *Engine) ObserveStep(node, iter int, _ time.Duration) {
	if e == nil || iter < 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nodes[node] = struct{}{}
	if iter <= e.lastAnalyzed {
		return // replayed iteration — already judged
	}
	byNode := e.steps[iter]
	if byNode == nil {
		byNode = make(map[int]struct{})
		e.steps[iter] = byNode
	}
	byNode[node] = struct{}{}
	if iter > e.maxIter {
		e.maxIter = iter
	}
	cohort := len(e.nodes)
	e.drainLocked(func(it, reported int) bool { return it <= e.maxIter-2 || reported >= cohort })
}

// NotifyFallback reports a confirmed collective fallback (the switch
// died and the run degraded to the ring): a critical point incident
// naming the dead component, plus a black-box dump.
func (e *Engine) NotifyFallback(node, iter int, cause string, detect time.Duration) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pullSpansLocked()
	e.fallbackHandled++
	e.openLocked(incidentSpec{
		detector: "fallback", point: true,
		node: node, phase: obs.PhaseFallback, sev: SevCritical,
		iterLo: iter, iterHi: iter,
		value: detect.Seconds(),
		cause: fmt.Sprintf("collective fallback: %s (detected in %s)", cause, detect),
	})
}

// Poll runs one detector pass over the tracer tail and the registry
// counters/gauges. Start calls it on a timer; tests and Close call it
// directly.
func (e *Engine) Poll() {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pollLocked(time.Now())
}

// ---- streaming internals (all called with e.mu held) ----

// pullSpansLocked drains new spans from the tracer into the
// per-iteration recv-wait accumulators.
func (e *Engine) pullSpansLocked() {
	spans, cur := e.rec.Tracer().TailSince(e.cursor)
	e.cursor = cur
	for _, s := range spans {
		if s.Phase == obs.PhaseRecv && s.Iter > e.lastAnalyzed {
			byNode := e.recvW[s.Iter]
			if byNode == nil {
				byNode = make(map[int]time.Duration)
				e.recvW[s.Iter] = byNode
			}
			byNode[s.Node] += time.Duration(s.Dur)
		}
	}
}

// evidenceLocked returns the spans a dump or a blame verdict is built
// from, oldest first, straight off the tracer's ring (the engine keeps no
// copy): the blackboxSpans before the engine's cursor, as far as they are
// still retained, plus whatever was recorded since the last pull.
func (e *Engine) evidenceLocked() []obs.Span {
	spans, _ := e.rec.Tracer().TailSince(e.cursor - blackboxSpans)
	return spans
}

// drainLocked analyzes, in iteration order, every pending iteration that
// ready (given the iteration and how many nodes reported it) accepts.
func (e *Engine) drainLocked(ready func(it, reported int) bool) {
	pending := make([]int, 0, len(e.steps))
	for it, byNode := range e.steps {
		if ready(it, len(byNode)) {
			pending = append(pending, it)
		}
	}
	if len(pending) == 0 {
		return
	}
	sort.Ints(pending)
	e.pullSpansLocked()
	for _, it := range pending {
		recvVals := e.recvW[it]
		delete(e.steps, it)
		delete(e.recvW, it)
		if it > e.lastAnalyzed {
			e.lastAnalyzed = it
		}
		e.itersSeen++
		warmup := e.itersSeen <= e.o.Warmup
		e.recvWaitLocked(recvVals, it, warmup)
		e.inversionLocked(recvVals, it, warmup)
	}
}

// recvWaitLocked runs the robust cross-node detector on one iteration's
// per-node recv waits.
func (e *Engine) recvWaitLocked(vals map[int]time.Duration, it int, warmup bool) {
	if len(vals) < 2 {
		return // nothing to compare against
	}
	med, sigma := robustStats(vals)
	if e.sigRecv == 0 {
		e.sigRecv = sigma
	} else {
		e.sigRecv = ewmaAlpha*sigma + (1-ewmaAlpha)*e.sigRecv
	}
	minGap := float64(e.o.MinStepGap)
	for n, v := range vals {
		d := float64(v) - med
		sm := ewmaAlpha*d + (1-ewmaAlpha)*e.devRecv[n]
		e.devRecv[n] = sm
		if warmup {
			continue
		}
		// Only high-side outliers strike: a node waiting far longer than
		// its peers has a degraded inbound link. (A slow node drags everyone
		// ELSE's wait up uniformly and its own DOWN — the straggler
		// inversion — so it is the straggler family's catch.)
		//
		// Both the raw and the smoothed deviation must exceed the gates:
		// requiring the raw one stops a single large hiccup from striking
		// for several iterations while its EWMA tail decays; requiring the
		// smoothed one stops a burst of small independent wobbles.
		if !(d > minGap && sm > minGap && sm > zThreshold*e.sigRecv) {
			e.strikesRecv[n] = 0
			e.closeLocked("recv_wait", n)
			continue
		}
		e.strikesRecv[n]++
		if e.strikesRecv[n] < e.o.Consecutive {
			continue
		}
		value, baseline, score := v.Seconds(), time.Duration(med).Seconds(), sm/e.sigRecv
		e.openLocked(incidentSpec{
			detector: "recv_wait",
			node:     n, sev: SevWarn, phase: obs.PhaseRecv,
			iterLo: it - e.o.Consecutive + 1, iterHi: it,
			value: value, baseline: baseline, score: score,
			cause: fmt.Sprintf("inbound-link recv wait %.1fms vs cohort median %.1fms (z=%.1f)",
				1e3*value, 1e3*baseline, score),
		})
	}
}

// inversionLocked is the synchronous-collective straggler detector: the
// gap between the cohort's median recv wait and its minimum. A slow node
// cannot be seen in its own wall clock (the collective equalizes every
// member's step) or as a high recv wait (it arrives at the exchange last
// and waits least, while its peers' waits balloon) — so a sustained
// inversion gap convicts the minimum-wait node, exactly the rule
// obs.AttributeCriticalPath applies post-mortem.
func (e *Engine) inversionLocked(vals map[int]time.Duration, it int, warmup bool) {
	if len(vals) < 2 {
		return
	}
	med, _ := robustStats(vals)
	minN, minV := -1, time.Duration(0)
	for n, v := range vals {
		if minN < 0 || v < minV || (v == minV && n < minN) {
			minN, minV = n, v
		}
	}
	gap := med - float64(minV)
	sm := ewmaAlpha*gap + (1-ewmaAlpha)*e.devInv
	e.devInv = sm
	if warmup {
		return
	}
	minGap := float64(e.o.MinStepGap)
	confirmed := e.invNode >= 0 && e.open[incidentKey("straggler", e.invNode)] != nil
	if gap <= minGap || sm <= minGap {
		// Balanced iteration. A mere suspect is cleared at once, but a
		// *confirmed* incident takes the same Consecutive evidence to
		// close as it took to open — one calm dip amid scheduler noise
		// must not close-and-reopen the same conviction.
		e.invStrikes = 0
		if e.invNode < 0 {
			return
		}
		if confirmed {
			e.invCalm++
			if e.invCalm < e.o.Consecutive {
				return
			}
		}
		e.closeLocked("straggler", e.invNode)
		e.invNode, e.invCalm, e.invFlip = -1, 0, 0
		return
	}
	e.invCalm = 0
	if minN != e.invNode {
		if confirmed {
			// Contrary evidence against a confirmed straggler: sustained
			// for Consecutive iterations it re-points the conviction;
			// a single noisy minimum leaves the incident standing.
			e.invFlip++
			if e.invFlip < e.o.Consecutive {
				return
			}
		}
		if e.invNode >= 0 {
			e.closeLocked("straggler", e.invNode)
		}
		e.invNode, e.invStrikes, e.invFlip = minN, 0, 0
	} else {
		e.invFlip = 0
	}
	e.invStrikes++
	if e.invStrikes < e.o.Consecutive {
		return
	}
	spec := incidentSpec{
		detector: "straggler",
		node:     minN, sev: SevWarn, phase: obs.PhaseCompute,
		iterLo: it - e.o.Consecutive + 1, iterHi: it,
		value: time.Duration(med).Seconds(), baseline: minV.Seconds(),
		score: gap / minGap,
		cause: fmt.Sprintf("cohort recv wait %.1fms vs this node's %.1fms (straggler inversion)",
			med/1e6, 1e3*minV.Seconds()),
	}
	// Let critical-path attribution over the recent spans confirm the
	// culprit's dominant phase, as `inctrace blame` would post-mortem
	// (once per incident: an open one only has its window extended).
	if e.open[incidentKey("straggler", minN)] == nil {
		if bn, bp, ok := e.blameLocked(it); ok && bn == minN {
			spec.phase = bp
		}
	}
	e.openLocked(spec)
}

// blameLocked runs critical-path attribution over the last window
// iterations of the evidence spans and returns the gating node and its
// dominant phase, if the verdict is decisive (majority share).
func (e *Engine) blameLocked(it int) (int, obs.Phase, bool) {
	var win []obs.Span
	for _, s := range e.evidenceLocked() {
		if s.Iter >= it-window {
			win = append(win, s)
		}
	}
	if len(win) == 0 {
		return 0, 0, false
	}
	r := obs.AttributeCriticalPath(win, e.o.MinStepGap)
	node, share := r.Gating()
	if node < 0 || share < 0.5 {
		return 0, 0, false
	}
	return node, r.DominantPhase(node), true
}

// pollLocked is one pass of the polled detectors.
func (e *Engine) pollLocked(now time.Time) {
	e.mPolls.Add(1)
	e.pullSpansLocked()
	reg := e.rec.Registry()
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	e.flight.addSnap(now.UnixNano(), snap)

	cnt := func(name string) int64 {
		v, _ := snap[name].(int64)
		return v
	}
	gauge := func(name string) float64 {
		v, _ := snap[name].(float64)
		return v
	}
	dt := now.Sub(e.lastPoll).Seconds()
	if e.lastPoll.IsZero() {
		dt = now.Sub(e.started).Seconds()
	}
	if dt <= 0 {
		dt = 1e-9
	}
	e.lastPoll = now

	// Rate-of-change families on the transport counters.
	e.rateLocked("retransmit_rate", "tcp_retransmits", cnt, dt, retransRate, obs.PhaseSend)
	e.rateLocked("crc_rate", "tcp_crc_failures", cnt, dt, crcRate, obs.PhaseRecv)

	// Membership suspects: any growth is worth an incident (a fault-free
	// run never suspects anyone).
	if d := cnt("elastic_suspects") - e.prevCnt["elastic_suspects"]; d > 0 {
		e.openLocked(incidentSpec{
			detector: "suspect", node: -1, sev: SevWarn, phase: obs.PhaseRecv,
			value: float64(d),
			cause: fmt.Sprintf("%d new membership suspect(s)", d),
		})
	} else if _, isOpen := e.open[incidentKey("suspect", -1)]; isOpen {
		e.closeLocked("suspect", -1)
	}

	// Point events the push path may not have seen (counter-only
	// producers): confirmed fallbacks and evictions.
	if total := cnt("collective_fallbacks"); total > e.fallbackHandled {
		d := total - e.fallbackHandled
		e.fallbackHandled = total
		e.openLocked(incidentSpec{
			detector: "fallback", point: true, node: -1,
			phase: obs.PhaseFallback, sev: SevCritical, value: float64(d),
			cause: fmt.Sprintf("%d collective fallback(s) observed via counter", d),
		})
	}
	if total := cnt("elastic_evictions"); total > e.evictHandled {
		d := total - e.evictHandled
		e.evictHandled = total
		e.openLocked(incidentSpec{
			detector: "eviction", point: true, node: -1,
			phase: obs.PhaseReplay, sev: SevCritical, value: float64(d),
			cause: fmt.Sprintf("%d member(s) evicted", d),
		})
	}

	// Heartbeat gap: the elastic heartbeat counter must keep moving while
	// the membership gauge says the ring is populated.
	if hb := cnt("elastic_heartbeats"); hb != e.hbLastCount {
		e.hbLastCount = hb
		e.hbLastChange = now
		e.closeLocked("heartbeat_gap", -1)
	} else if gauge("elastic_members") > 0 && now.Sub(e.hbLastChange) > heartbeatGap {
		e.openLocked(incidentSpec{
			detector: "heartbeat_gap", node: -1, sev: SevWarn, phase: obs.PhaseRecv,
			value: now.Sub(e.hbLastChange).Seconds(),
			cause: fmt.Sprintf("no heartbeat progress for %s with members present",
				now.Sub(e.hbLastChange).Round(time.Millisecond)),
		})
	}

	// Compression-ratio drift against an EWMA baseline.
	if ratio := gauge("compression_ratio"); ratio > 0 {
		if e.ratioN < 5 {
			// Baseline still settling.
			if e.ratioN == 0 {
				e.ratioEwma = ratio
			} else {
				e.ratioEwma = ewmaAlpha*ratio + (1-ewmaAlpha)*e.ratioEwma
			}
			e.ratioN++
		} else if drift := math.Abs(ratio-e.ratioEwma) / e.ratioEwma; drift > ratioDriftPct {
			e.openLocked(incidentSpec{
				detector: "compression_drift", node: -1, sev: SevInfo, phase: obs.PhaseCompress,
				value: ratio, baseline: e.ratioEwma, score: drift,
				cause: fmt.Sprintf("compression ratio %.2f drifted %.0f%% from baseline %.2f",
					ratio, 100*drift, e.ratioEwma),
			})
		} else {
			e.ratioEwma = ewmaAlpha*ratio + (1-ewmaAlpha)*e.ratioEwma
			if drift < ratioDriftPct/2 {
				e.closeLocked("compression_drift", -1)
			}
		}
	}

	for _, name := range pollCounters {
		e.prevCnt[name] = cnt(name)
	}
}

// rateLocked opens/extends a rate incident when counter's growth rate
// exceeds perSec for two consecutive polls (a single window's burst —
// connection setup, a one-off timeout storm — never pages), and closes
// it when the rate falls below half the threshold.
func (e *Engine) rateLocked(family, counter string, cnt func(string) int64, dt, perSec float64, phase obs.Phase) {
	d := cnt(counter) - e.prevCnt[counter]
	rate := float64(d) / dt
	switch {
	case rate > perSec:
		e.rateStrikes[family]++
		if e.rateStrikes[family] < 2 {
			return
		}
		e.openLocked(incidentSpec{
			detector: family, node: -1, sev: SevWarn, phase: phase,
			value: rate, baseline: perSec, score: rate / perSec,
			cause: fmt.Sprintf("%s at %.0f/s (threshold %.0f/s)", counter, rate, perSec),
		})
	case rate < perSec/2:
		e.rateStrikes[family] = 0
		e.closeLocked(family, -1)
	default:
		e.rateStrikes[family] = 0
	}
}

// ---- incident lifecycle ----

type incidentSpec struct {
	detector        string
	point           bool // instantaneous event: opened already closed, never deduplicated away
	node            int
	phase           obs.Phase
	sev             Severity
	iterLo, iterHi  int
	value, baseline float64
	score           float64
	cause           string
}

func incidentKey(detector string, node int) string {
	return fmt.Sprintf("%s/%d", detector, node)
}

// openLocked opens an incident (or extends the already-open one for the
// same detector+node) and triggers the black-box dump.
func (e *Engine) openLocked(spec incidentSpec) {
	if !spec.point {
		if inc := e.open[incidentKey(spec.detector, spec.node)]; inc != nil {
			if spec.iterHi > inc.IterHi {
				inc.IterHi = spec.iterHi
			}
			inc.Value, inc.Score = spec.value, spec.score
			return
		}
	}
	e.nextID++
	now := time.Now().UnixNano()
	inc := &Incident{
		ID:       e.nextID,
		Detector: spec.detector,
		Severity: spec.sev,
		Node:     spec.node,
		Phase:    spec.phase,
		IterLo:   spec.iterLo,
		IterHi:   spec.iterHi,
		OpenedNs: now,
		Value:    spec.value,
		Baseline: spec.baseline,
		Score:    spec.score,
		Cause:    spec.cause,
	}
	if spec.point {
		inc.ClosedNs = now
	} else {
		e.open[incidentKey(spec.detector, spec.node)] = inc
	}
	t := e.tally[spec.detector]
	t[spec.sev]++
	e.tally[spec.detector] = t
	e.incidents = append(e.incidents, inc)
	if len(e.incidents) > maxIncidents {
		e.incidents = e.incidents[len(e.incidents)-maxIncidents:]
	}
	e.mIncidents.Add(1)
	e.mOpen.Set(float64(len(e.open)))
	if e.o.BlackboxDir != "" {
		if path, err := e.dumpLocked(inc); err == nil {
			inc.Blackbox = path
			e.dumps++
			e.mDumps.Add(1)
		} else {
			inc.Cause += " (blackbox dump failed: " + err.Error() + ")"
		}
	}
}

func (e *Engine) closeLocked(detector string, node int) {
	key := incidentKey(detector, node)
	inc := e.open[key]
	if inc == nil {
		return
	}
	inc.ClosedNs = time.Now().UnixNano()
	delete(e.open, key)
	e.mOpen.Set(float64(len(e.open)))
}

// dumpLocked writes the evidence spans, the retained metric snapshots
// and the opening incident as one black-box JSONL file and returns its
// path.
func (e *Engine) dumpLocked(inc *Incident) (string, error) {
	if err := os.MkdirAll(e.o.BlackboxDir, 0o755); err != nil {
		return "", err
	}
	scope := fmt.Sprintf("node%d", inc.Node)
	if inc.Node < 0 {
		scope = "global"
	}
	path := filepath.Join(e.o.BlackboxDir,
		fmt.Sprintf("blackbox-%03d-%s-%s.jsonl", inc.ID, inc.Detector, scope))
	meta := obs.TraceMeta{
		Version:     1,
		Node:        -1,
		EpochUnixNs: e.rec.Tracer().EpochUnixNs(),
		Source:      "blackbox",
	}
	snaps := e.flight.snapshots()
	if reg := e.rec.Registry(); reg != nil {
		// One fresh snapshot at dump time, so the file carries the state
		// of the metrics at the incident itself.
		snaps = append(snaps, metricSnap{UnixNs: time.Now().UnixNano(), Metrics: reg.Snapshot()})
	}
	return path, writeDump(path, meta, *inc, snaps, e.evidenceLocked())
}

// ---- status surface ----

// Incidents returns a copy of the retained incident history, oldest
// first (nil engine: nil).
func (e *Engine) Incidents() []Incident {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Incident, len(e.incidents))
	for i, inc := range e.incidents {
		out[i] = *inc
	}
	return out
}

// OpenCount returns how many incidents are currently open.
func (e *Engine) OpenCount() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.open)
}

// Healthy reports whether no incident is currently open.
func (e *Engine) Healthy() bool { return e.OpenCount() == 0 }

// SeriesCount is one health_incidents series: how many incidents a
// detector has ever opened at one severity.
type SeriesCount struct {
	Detector string   `json:"detector"`
	Severity Severity `json:"severity"`
	N        int      `json:"n"`
}

// Status is the /health document. Total, ByDetector and Series count
// every incident ever opened — they are exported as counters and never
// fall — while Incidents is only the newest few records.
type Status struct {
	Healthy    bool           `json:"healthy"`
	Open       int            `json:"open"`
	Total      int            `json:"total"`
	Dumps      int            `json:"blackbox_dumps"`
	Polls      int64          `json:"polls"`
	UptimeSecs float64        `json:"uptime_s"`
	ByDetector map[string]int `json:"by_detector,omitempty"`
	// Series is sorted by detector, then ascending severity.
	Series    []SeriesCount `json:"series,omitempty"`
	Incidents []Incident    `json:"incidents,omitempty"`
}

// Status returns the current health document (a nil engine is healthy
// and empty).
func (e *Engine) Status() Status {
	if e == nil {
		return Status{Healthy: true}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Status{
		Healthy:    len(e.open) == 0,
		Open:       len(e.open),
		Total:      e.nextID,
		Dumps:      e.dumps,
		Polls:      e.mPolls.Value(),
		UptimeSecs: time.Since(e.started).Seconds(),
	}
	if e.nextID > 0 {
		detectors := make([]string, 0, len(e.tally))
		for det := range e.tally {
			detectors = append(detectors, det)
		}
		sort.Strings(detectors)
		s.ByDetector = make(map[string]int, len(detectors))
		for _, det := range detectors {
			for sev, n := range e.tally[det] {
				if n > 0 {
					s.ByDetector[det] += n
					s.Series = append(s.Series, SeriesCount{det, Severity(sev), n})
				}
			}
		}
		n := len(e.incidents)
		if n > 32 {
			n = 32 // the document stays small however long the run
		}
		s.Incidents = make([]Incident, n)
		for i, inc := range e.incidents[len(e.incidents)-n:] {
			s.Incidents[i] = *inc
		}
	}
	return s
}

// ---- robust statistics ----

// robustStats returns the median and the MAD-derived robust sigma
// (1.4826·MAD, floored) of the cohort, in nanoseconds.
func robustStats(vals map[int]time.Duration) (med, sigma float64) {
	xs := make([]float64, 0, len(vals))
	for _, v := range vals {
		xs = append(xs, float64(v))
	}
	med = median(xs)
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	sigma = 1.4826 * median(devs)
	if sigma < madFloor {
		sigma = madFloor
	}
	return med, sigma
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
