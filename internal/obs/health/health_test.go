package health

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"inceptionn/internal/obs"
)

// testOptions shrinks warmup/strike windows so unit tests confirm
// quickly, without touching the statistical thresholds under test.
func testOptions() Options {
	return Options{Warmup: 2, Consecutive: 2}
}

// feedIter pushes one iteration of synthetic step latencies.
func feedIter(e *Engine, iter int, lat map[int]time.Duration) {
	for n, d := range lat {
		e.ObserveStep(n, iter, d)
	}
}

// feedWaits records one iteration of per-node recv waits as spans, then
// reports the iteration complete on every node with a uniform step (the
// collective equalizes wall clocks; the evidence is in the waits).
func feedWaits(e *Engine, tr *obs.Tracer, iter int, wait map[int]time.Duration) {
	step := make(map[int]time.Duration, len(wait))
	for n, w := range wait {
		tr.RecordRaw(n, iter, obs.PhaseRecv, int64(iter)*1e6, w.Nanoseconds())
		step[n] = 35 * time.Millisecond
	}
	feedIter(e, iter, step)
}

// TestStragglerInversionOpensAndCloses drives the synchronous-collective
// scenario: every node's wall clock is identical (the exchange equalizes
// them), and the only tell is the recv-wait inversion — the straggler
// waits least while its peers' waits balloon.
func TestStragglerInversionOpensAndCloses(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(1 << 12)
	rec := obs.NewRecorder(reg, tr)
	e := New(rec, testOptions())
	step := 35 * time.Millisecond
	for it := 0; it < 20; it++ {
		for n := 0; n < 4; n++ {
			wait := 25 * time.Millisecond
			if n == 2 || it >= 12 { // the straggler waits least; fixed at iter 12
				wait = time.Millisecond
			}
			tr.RecordRaw(n, it, obs.PhaseRecv, int64(it)*1e6, wait.Nanoseconds())
		}
		feedIter(e, it, map[int]time.Duration{0: step, 1: step, 2: step, 3: step})
	}
	e.Close()
	incs := e.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents = %+v, want exactly 1", incs)
	}
	inc := incs[0]
	if inc.Detector != "straggler" || inc.Node != 2 {
		t.Fatalf("incident = %+v, want straggler at node 2", inc)
	}
	if inc.ClosedNs == 0 {
		t.Fatal("straggler incident still open after the cohort rebalanced")
	}
	if !e.Healthy() {
		t.Fatal("engine unhealthy after the straggler recovered")
	}
}

func TestCleanCohortOpensNothing(t *testing.T) {
	tr := obs.NewTracer(1 << 12)
	e := New(obs.NewRecorder(obs.NewRegistry(), tr), testOptions())
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 50; it++ {
		lat := make(map[int]time.Duration, 4)
		for n := 0; n < 4; n++ {
			// Balanced cohort with ±1ms jitter — under both the absolute
			// floor and the z threshold.
			lat[n] = 10*time.Millisecond + time.Duration(rng.Intn(2_000_000)-1_000_000)
		}
		feedWaits(e, tr, it, lat)
	}
	e.Close()
	if incs := e.Incidents(); len(incs) != 0 {
		t.Fatalf("clean cohort opened incidents: %+v", incs)
	}
	if !e.Healthy() {
		t.Fatal("clean engine not healthy")
	}
}

// TestSingleHiccupDoesNotConfirm pins the raw-and-smoothed strike rule on
// the recv_wait family: one huge wait strikes once, and although its EWMA
// tail stays above every gate for several iterations, the raw deviation
// is back to zero on the next one, so the strike count never reaches
// Consecutive.
func TestSingleHiccupDoesNotConfirm(t *testing.T) {
	tr := obs.NewTracer(1 << 12)
	e := New(obs.NewRecorder(obs.NewRegistry(), tr), testOptions())
	base := 10 * time.Millisecond
	for it := 0; it < 20; it++ {
		extra := time.Duration(0)
		if it == 10 {
			extra = 100 * time.Millisecond // one GC-style pause
		}
		feedWaits(e, tr, it, map[int]time.Duration{0: base, 1: base, 2: base + extra, 3: base})
	}
	e.Close()
	if incs := e.Incidents(); len(incs) != 0 {
		t.Fatalf("single hiccup confirmed an incident: %+v", incs)
	}
}

func TestRecvWaitDetectorBlamesSlowLink(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(1 << 12)
	rec := obs.NewRecorder(reg, tr)
	e := New(rec, testOptions())
	base := 10 * time.Millisecond
	for it := 0; it < 20; it++ {
		for n := 0; n < 4; n++ {
			wait := time.Millisecond
			if n == 1 {
				wait = 30 * time.Millisecond // degraded inbound link
			}
			tr.RecordRaw(n, it, obs.PhaseRecv, int64(it)*1e6, wait.Nanoseconds())
		}
		feedIter(e, it, map[int]time.Duration{0: base, 1: base, 2: base, 3: base})
	}
	e.Close()
	var recv []Incident
	for _, inc := range e.Incidents() {
		if inc.Detector == "recv_wait" {
			recv = append(recv, inc)
		}
	}
	if len(recv) != 1 || recv[0].Node != 1 || recv[0].Phase != obs.PhaseRecv {
		t.Fatalf("recv_wait incidents = %+v, want one at node 1 phase recv", recv)
	}
}

// TestRecvWaitIncidentClosesWhenLinkRecovers is the latency-family
// lifecycle on the family that remains: a persistently slow inbound link
// holds exactly one open incident, and recovery closes it.
func TestRecvWaitIncidentClosesWhenLinkRecovers(t *testing.T) {
	tr := obs.NewTracer(1 << 12)
	e := New(obs.NewRecorder(obs.NewRegistry(), tr), testOptions())
	waits := func(extra time.Duration) map[int]time.Duration {
		return map[int]time.Duration{0: time.Millisecond, 1: time.Millisecond + extra, 2: time.Millisecond, 3: time.Millisecond}
	}
	for it := 0; it < 10; it++ {
		feedWaits(e, tr, it, waits(25*time.Millisecond))
	}
	incs := e.Incidents()
	if len(incs) != 1 || incs[0].Detector != "recv_wait" || incs[0].Node != 1 || incs[0].ClosedNs != 0 || e.Healthy() {
		t.Fatalf("incidents = %+v (healthy %v), want exactly one open recv_wait at node 1", incs, e.Healthy())
	}
	for it := 10; it < 30; it++ {
		feedWaits(e, tr, it, waits(0))
	}
	e.Close()
	incs = e.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents = %+v, want 1", incs)
	}
	if incs[0].ClosedNs == 0 {
		t.Fatal("incident still open after the link recovered")
	}
	if !e.Healthy() {
		t.Fatal("engine unhealthy after recovery")
	}
}

func TestRetransmitRateDetector(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, nil)
	e := New(rec, testOptions())
	// One burst window never pages (connection setup looks like this)...
	reg.Counter("tcp_retransmits").Add(10_000)
	e.Poll()
	if len(e.Incidents()) != 0 {
		t.Fatalf("single burst window opened an incident: %+v", e.Incidents())
	}
	// ...but a second consecutive hot window confirms.
	reg.Counter("tcp_retransmits").Add(10_000)
	e.Poll()
	var found *Incident
	for _, inc := range e.Incidents() {
		if inc.Detector == "retransmit_rate" {
			in := inc
			found = &in
		}
	}
	if found == nil {
		t.Fatalf("no retransmit_rate incident after two sustained bursts: %+v", e.Incidents())
	}
	if found.Severity != SevWarn || found.Node != -1 {
		t.Fatalf("incident = %+v, want warn at node -1", found)
	}
	// A quiet stretch closes it.
	time.Sleep(5 * time.Millisecond)
	e.Poll()
	if !e.Healthy() {
		t.Fatalf("rate incident still open after a quiet poll: %+v", e.Incidents())
	}
}

func TestFallbackPushIsNotDoubledByCounterPoll(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, obs.NewTracer(256))
	e := New(rec, testOptions())
	// The gate's trip() order: counter, span, then the push.
	reg.Counter("collective_fallbacks").Add(1)
	e.NotifyFallback(4, 7, "stall: switch stream stalled", 1500*time.Millisecond)
	e.Poll()
	e.Close()
	var fb []Incident
	for _, inc := range e.Incidents() {
		if inc.Detector == "fallback" {
			fb = append(fb, inc)
		}
	}
	if len(fb) != 1 {
		t.Fatalf("fallback incidents = %+v, want exactly 1", fb)
	}
	inc := fb[0]
	if inc.Node != 4 || inc.Phase != obs.PhaseFallback || inc.Severity != SevCritical {
		t.Fatalf("incident = %+v, want critical fallback at node 4", inc)
	}
	if inc.ClosedNs != inc.OpenedNs {
		t.Fatalf("point incident not closed at open: %+v", inc)
	}
	if inc.IterLo != 7 || inc.IterHi != 7 {
		t.Fatalf("incident window = %d..%d, want 7..7", inc.IterLo, inc.IterHi)
	}
}

func TestEvictionCounterOpensCriticalIncident(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, nil)
	e := New(rec, testOptions())
	reg.Counter("elastic_evictions").Add(1)
	e.Poll()
	e.Poll() // no growth — must not duplicate
	var ev []Incident
	for _, inc := range e.Incidents() {
		if inc.Detector == "eviction" {
			ev = append(ev, inc)
		}
	}
	if len(ev) != 1 || ev[0].Severity != SevCritical {
		t.Fatalf("eviction incidents = %+v, want one critical", ev)
	}
}

func TestHeartbeatGapDetector(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, nil)
	e := New(rec, testOptions())
	// Synthetic poll instants: the gap is 5 s and the test does not sleep.
	pollAt := func(at time.Time) {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.pollLocked(at)
	}
	t0 := time.Now()
	reg.Gauge("elastic_members").Set(3)
	reg.Counter("elastic_heartbeats").Add(5)
	pollAt(t0) // heartbeat moved: baseline
	pollAt(t0.Add(heartbeatGap / 2))
	if !e.Healthy() {
		t.Fatalf("heartbeat_gap opened inside the gap: %+v", e.Incidents())
	}
	pollAt(t0.Add(heartbeatGap + time.Second)) // stalled past the gap
	if e.Healthy() {
		t.Fatalf("no heartbeat_gap incident: %+v", e.Incidents())
	}
	reg.Counter("elastic_heartbeats").Add(1)
	pollAt(t0.Add(heartbeatGap + 2*time.Second))
	if !e.Healthy() {
		t.Fatalf("heartbeat_gap still open after progress: %+v", e.Incidents())
	}
	found := false
	for _, inc := range e.Incidents() {
		if inc.Detector == "heartbeat_gap" {
			found = true
		}
	}
	if !found {
		t.Fatal("heartbeat_gap incident missing from history")
	}
}

func TestCompressionDriftDetector(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, nil)
	e := New(rec, testOptions())
	ratio := reg.Gauge("compression_ratio")
	ratio.Set(3.0)
	for i := 0; i < 6; i++ {
		e.Poll() // settle the baseline
	}
	ratio.Set(1.2) // ratio collapse
	e.Poll()
	var drift []Incident
	for _, inc := range e.Incidents() {
		if inc.Detector == "compression_drift" {
			drift = append(drift, inc)
		}
	}
	if len(drift) != 1 {
		t.Fatalf("compression_drift incidents = %+v, want 1", drift)
	}
}

func TestNilEngineIsSafe(t *testing.T) {
	var e *Engine
	e.ObserveStep(0, 0, time.Second)
	e.NotifyFallback(1, 2, "x", time.Second)
	e.Poll()
	e.Start(time.Millisecond)
	e.Close()
	if !e.Healthy() || e.OpenCount() != 0 || e.Incidents() != nil {
		t.Fatal("nil engine not healthy/empty")
	}
	if s := e.Status(); !s.Healthy {
		t.Fatal("nil engine status unhealthy")
	}
	// The nil engine's handler still serves a healthy document.
	rr := httptest.NewRecorder()
	e.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/health", nil))
	if !strings.Contains(rr.Body.String(), `"healthy": true`) {
		t.Fatalf("nil handler body: %s", rr.Body.String())
	}
}

func TestHandlerJSONAndProm(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, nil)
	e := New(rec, testOptions())
	e.NotifyFallback(4, 3, "stall", time.Second)
	rr := httptest.NewRecorder()
	e.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/health", nil))
	body := rr.Body.String()
	for _, want := range []string{`"healthy": true`, `"detector": "fallback"`, `"severity": "critical"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("JSON body missing %q:\n%s", want, body)
		}
	}
	rr = httptest.NewRecorder()
	e.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/health?format=prom", nil))
	body = rr.Body.String()
	for _, want := range []string{
		"health_healthy 1",
		"health_incidents_total 1",
		`health_incidents{detector="fallback",severity="critical"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prom body missing %q:\n%s", want, body)
		}
	}
}

// TestIncidentCountersKeepCounting: what /health exports under "# TYPE …
// counter" counts every incident ever opened — not the length of the
// bounded history (256) or of the document's excerpt (32), which saturate —
// and the labelled series come out in sorted order.
func TestIncidentCountersKeepCounting(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(obs.NewRecorder(reg, nil), testOptions())
	const n = 300
	for i := 0; i < n; i++ {
		e.NotifyFallback(4, i, "stall", time.Second)
	}
	get := func(url string) string {
		rr := httptest.NewRecorder()
		e.Handler().ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
		return rr.Body.String()
	}
	series := func() (lines []string, sum int) {
		for _, line := range strings.Split(get("/health?format=prom"), "\n") {
			if strings.HasPrefix(line, "health_incidents{") {
				v, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
				if err != nil {
					t.Fatalf("series line %q: %v", line, err)
				}
				lines, sum = append(lines, line), sum+v
			}
		}
		return lines, sum
	}

	var doc struct {
		Total      int            `json:"total"`
		ByDetector map[string]int `json:"by_detector"`
	}
	if err := json.Unmarshal([]byte(get("/health")), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Total != n || doc.ByDetector["fallback"] != n {
		t.Errorf("JSON total = %d, by_detector = %v, want %d fallbacks", doc.Total, doc.ByDetector, n)
	}
	if prom := get("/health?format=prom"); !strings.Contains(prom, "health_incidents_total 300\n") {
		t.Errorf("prom total is not %d:\n%s", n, prom)
	}
	if lines, sum := series(); sum != n {
		t.Errorf("series sum = %d, want %d: %v", sum, n, lines)
	}

	// Two more families: the series are emitted sorted, every time.
	reg.Counter("elastic_evictions").Add(1)
	reg.Counter("elastic_suspects").Add(1)
	e.Poll()
	want := []string{
		`health_incidents{detector="eviction",severity="critical"} 1`,
		`health_incidents{detector="fallback",severity="critical"} 300`,
		`health_incidents{detector="suspect",severity="warn"} 1`,
	}
	for i := 0; i < 8; i++ {
		if lines, _ := series(); !reflect.DeepEqual(lines, want) {
			t.Fatalf("series = %q, want %q", lines, want)
		}
	}
}

func TestEscapeLabel(t *testing.T) {
	got := escapeLabel("a\\b\"c\nd")
	want := `a\\b\"c\nd`
	if got != want {
		t.Fatalf("escapeLabel = %q, want %q", got, want)
	}
}

func TestStartPollsInBackground(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, nil)
	e := New(rec, testOptions())
	e.Start(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for reg.Counter("health_polls").Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("background poller never ran")
		}
		time.Sleep(time.Millisecond)
	}
	e.Close()
	e.Close() // idempotent
}

func TestRenderIncidentsTable(t *testing.T) {
	var b strings.Builder
	RenderIncidents(&b, nil)
	if !strings.Contains(b.String(), "no incidents") {
		t.Fatalf("empty render: %q", b.String())
	}
	b.Reset()
	now := time.Now().UnixNano()
	RenderIncidents(&b, []Incident{
		{ID: 2, Detector: "fallback", Severity: SevCritical, Node: 4, Phase: obs.PhaseFallback,
			IterLo: 7, IterHi: 7, OpenedNs: now + 1e9, ClosedNs: now + 1e9, Cause: "switch died", Blackbox: "/tmp/bb.jsonl"},
		{ID: 1, Detector: "straggler", Severity: SevWarn, Node: 2, Phase: obs.PhaseCompute,
			IterLo: 5, IterHi: 19, OpenedNs: now, Cause: "slow node"},
	})
	out := b.String()
	for _, want := range []string{"straggler", "fallback", "switch died", "blackbox: /tmp/bb.jsonl", "5..19"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Oldest first regardless of input order.
	if strings.Index(out, "straggler") > strings.Index(out, "fallback") {
		t.Fatalf("incidents not sorted oldest-first:\n%s", out)
	}
}
