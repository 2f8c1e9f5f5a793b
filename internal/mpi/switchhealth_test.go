package mpi

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"inceptionn/internal/fault"
	"inceptionn/internal/tcpfabric"
)

func TestGradeSwitchFault(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want SwitchFaultClass
		hard bool
	}{
		{"nil", nil, SwitchFaultNone, false},
		{"cancelled", context.Canceled, SwitchFaultUnrelated, false},
		{"wrapped cancelled", fmt.Errorf("mpi: rank 1 recv: %w", context.Canceled), SwitchFaultUnrelated, false},
		{"deadline", fmt.Errorf("recv 1<-4: %w", context.DeadlineExceeded), SwitchFaultStall, false},
		{"crash", fmt.Errorf("node 4 send: %w", fault.ErrCrashed), SwitchFaultLink, true},
		{"retries", fmt.Errorf("send 0->4 seq 3 after 8 attempts: %w", fault.ErrMaxRetries), SwitchFaultLink, true},
		{"closed", fault.ErrClosed, SwitchFaultLink, true},
		// What the TCP fabric actually reports: a partitioned uplink's
		// exhausted budget on the node's anomaly channel, and an operation
		// on a torn-down node.
		{"tcp retries", fmt.Errorf("tcpfabric: frame %d->%d seq %d: %w", 0, 4, 2, tcpfabric.ErrRetriesExhausted), SwitchFaultLink, true},
		{"tcp closed", fmt.Errorf("tcpfabric: node 1 recv from 4: %w", tcpfabric.ErrClosed), SwitchFaultLink, true},
		{"window", fmt.Errorf("%w: too many chunks", ErrSwitchWindow), SwitchFaultProtocol, true},
		{"protocol", fmt.Errorf("%w: short chunk", ErrSwitchProtocol), SwitchFaultProtocol, true},
		{"desync", errors.New("tcpfabric: node 1 expected tag 7401 from 4, got 7403"), SwitchFaultProtocol, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			class, cause := GradeSwitchFault(tc.err)
			if class != tc.want {
				t.Fatalf("GradeSwitchFault(%v) = %v, want %v", tc.err, class, tc.want)
			}
			if class.Hard() != tc.hard {
				t.Fatalf("class %v Hard() = %v, want %v", class, class.Hard(), tc.hard)
			}
			if tc.err != nil && cause == "" {
				t.Errorf("no cause string for %v", tc.err)
			}
		})
	}
}

// TestSwitchMonitorStrikes pins the confirming policy: hard evidence
// confirms immediately, stalls accumulate to the strike limit, and a
// clean exchange resets the count.
func TestSwitchMonitorStrikes(t *testing.T) {
	stall := fmt.Errorf("recv: %w", context.DeadlineExceeded)

	m := &SwitchMonitor{SoftStrikes: 2}
	if ok, _, _ := m.Observe(stall); ok {
		t.Fatal("one stall out of two confirmed")
	}
	if ok, _, _ := m.Observe(nil); ok {
		t.Fatal("success confirmed a failure")
	}
	if ok, _, _ := m.Observe(stall); ok {
		t.Fatal("stall after a success confirmed: the success should reset strikes")
	}
	if ok, class, cause := m.Observe(stall); !ok || class != SwitchFaultStall || cause == "" {
		t.Fatalf("second consecutive stall: confirmed=%v class=%v cause=%q", ok, class, cause)
	}

	// Defaults: one stall confirms; hard classes always confirm at once.
	var d SwitchMonitor
	if ok, _, _ := d.Observe(stall); !ok {
		t.Fatal("default monitor should confirm on the first stall")
	}
	var h SwitchMonitor
	if ok, class, _ := h.Observe(fault.ErrMaxRetries); !ok || class != SwitchFaultLink {
		t.Fatalf("hard evidence: confirmed=%v class=%v", ok, class)
	}
	// Cancellation never confirms and never strikes.
	var u SwitchMonitor
	u.SoftStrikes = 1
	if ok, class, _ := u.Observe(context.Canceled); ok || class != SwitchFaultUnrelated {
		t.Fatalf("cancellation: confirmed=%v class=%v", ok, class)
	}
}
