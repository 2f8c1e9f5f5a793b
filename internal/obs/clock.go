package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// ClockDoc is the document the /clock endpoint serves: the server's wall
// clock and its span timebase sampled at the same instant. It is the
// server half of the Collector's offset handshake.
type ClockDoc struct {
	// UnixNs is the server's wall clock at serve time.
	UnixNs int64 `json:"unix_ns"`
	// TraceNs is the position on the server tracer's span timeline at the
	// same instant (what a span starting now would carry as Start), or -1
	// when the server has no tracer.
	TraceNs int64 `json:"trace_ns"`
	// EpochUnixNs is the tracer's epoch in the server's wall clock (so
	// span wall time = EpochUnixNs + Start), or 0 without a tracer.
	EpochUnixNs int64 `json:"epoch_unix_ns"`
}

// clockDocNow samples the server clock for /clock.
func clockDocNow(tr *Tracer) ClockDoc {
	doc := ClockDoc{UnixNs: time.Now().UnixNano(), TraceNs: -1}
	if tr != nil {
		doc.TraceNs = tr.SinceEpochNs()
		doc.EpochUnixNs = tr.EpochUnixNs()
	}
	return doc
}

// ClockEstimate is a handshake-based estimate of a remote clock relative
// to the local one — the simplified-NTP midpoint method: for a probe sent
// at local time t0, answered with remote time tr, and received at local
// time t1, the offset estimate is tr − (t0+t1)/2, exact for a symmetric
// path and wrong by at most ±RTT/2 otherwise. EstimateClock keeps the
// minimum-RTT sample, whose error bound is tightest.
type ClockEstimate struct {
	// OffsetNs is the remote wall clock minus the local wall clock at the
	// same instant: local time = remote time − OffsetNs.
	OffsetNs int64
	// UncertaintyNs bounds the offset error: ± half the best sample's
	// round trip.
	UncertaintyNs int64
	// RTTNs is the best sample's round-trip time.
	RTTNs int64
	// EpochUnixNs is the remote tracer's span-timebase origin in the
	// remote wall clock (0 when the remote has no tracer).
	EpochUnixNs int64
	// Samples is how many probes succeeded.
	Samples int
}

// EstimateClock runs n probes (minimum 1) against a remote clock source
// and returns the minimum-RTT midpoint estimate. probe must return the
// remote's ClockDoc; the transport is the caller's (HTTP for live
// collection, an in-process fake under test).
func EstimateClock(n int, probe func() (ClockDoc, error)) (ClockEstimate, error) {
	if n < 1 {
		n = 1
	}
	var best ClockEstimate
	var lastErr error
	for i := 0; i < n; i++ {
		t0 := time.Now()
		doc, err := probe()
		t1 := time.Now()
		if err != nil {
			lastErr = err
			continue
		}
		rtt := t1.Sub(t0).Nanoseconds()
		if rtt < 0 {
			rtt = 0
		}
		mid := t0.UnixNano() + rtt/2
		est := ClockEstimate{
			OffsetNs:      doc.UnixNs - mid,
			UncertaintyNs: rtt/2 + 1, // never claim perfect knowledge
			RTTNs:         rtt,
			EpochUnixNs:   doc.EpochUnixNs,
		}
		if best.Samples == 0 || rtt < best.RTTNs {
			samples := best.Samples
			best = est
			best.Samples = samples
		}
		best.Samples++
	}
	if best.Samples == 0 {
		return ClockEstimate{}, fmt.Errorf("obs: clock handshake failed: %w", lastErr)
	}
	return best, nil
}

// HTTPClockProbe returns a probe for EstimateClock that GETs /clock from
// an obs HTTP endpoint.
func HTTPClockProbe(addr string) func() (ClockDoc, error) {
	url := "http://" + addr + "/clock"
	return func() (ClockDoc, error) {
		resp, err := scrapeClient.Get(url)
		if err != nil {
			return ClockDoc{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return ClockDoc{}, fmt.Errorf("GET %s: %s", url, resp.Status)
		}
		var doc ClockDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			return ClockDoc{}, fmt.Errorf("GET %s: %w", url, err)
		}
		return doc, nil
	}
}
