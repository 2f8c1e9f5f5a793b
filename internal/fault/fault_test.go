package fault

import (
	"testing"
	"time"
)

func TestInjectorDeterministic(t *testing.T) {
	cfg := Config{
		Seed: 7,
		Default: LinkFaults{
			DropRate: 0.1, CorruptRate: 0.1, DupRate: 0.05,
			DelayRate: 0.05, Delay: time.Millisecond,
		},
	}
	a := NewInjector(4, cfg)
	b := NewInjector(4, cfg)
	for seq := uint64(0); seq < 500; seq++ {
		for attempt := 0; attempt < 3; attempt++ {
			va := a.Decide(0, 1, seq, attempt)
			vb := b.Decide(0, 1, seq, attempt)
			if va != vb {
				t.Fatalf("seq %d attempt %d: %+v != %+v", seq, attempt, va, vb)
			}
		}
	}
}

func TestInjectorSeedChangesDecisions(t *testing.T) {
	mk := func(seed int64) *Injector {
		return NewInjector(2, Config{Seed: seed, Default: LinkFaults{DropRate: 0.5}})
	}
	a, b := mk(1), mk(2)
	same := 0
	for seq := uint64(0); seq < 200; seq++ {
		if a.Decide(0, 1, seq, 0).Drop == b.Decide(0, 1, seq, 0).Drop {
			same++
		}
	}
	if same == 200 {
		t.Fatal("different seeds produced identical drop decisions")
	}
}

func TestInjectorRates(t *testing.T) {
	inj := NewInjector(2, Config{Seed: 3, Default: LinkFaults{DropRate: 0.05}})
	drops := 0
	const trials = 20000
	for seq := uint64(0); seq < trials; seq++ {
		if inj.Decide(0, 1, seq, 0).Drop {
			drops++
		}
	}
	rate := float64(drops) / trials
	if rate < 0.035 || rate > 0.065 {
		t.Fatalf("drop rate %.4f far from configured 0.05", rate)
	}
}

func TestInjectorScheduleWindow(t *testing.T) {
	inj := NewInjector(2, Config{
		Seed:    1,
		Default: LinkFaults{DropRate: 1, From: 10, Until: 20},
	})
	for seq := uint64(0); seq < 30; seq++ {
		drop := inj.Decide(0, 1, seq, 0).Drop
		want := seq >= 10 && seq < 20
		if drop != want {
			t.Fatalf("seq %d: drop=%v, want %v", seq, drop, want)
		}
	}
}

func TestInjectorPerLinkOverride(t *testing.T) {
	inj := NewInjector(3, Config{
		Seed:  1,
		Links: map[Link]LinkFaults{{0, 1}: {DropRate: 1}},
	})
	for seq := uint64(0); seq < 10; seq++ {
		if !inj.Decide(0, 1, seq, 0).Drop {
			t.Fatal("override link did not drop")
		}
		if inj.Decide(1, 2, seq, 0).Drop {
			t.Fatal("default link dropped with zero config")
		}
	}
}

func TestInjectorPartition(t *testing.T) {
	inj := NewInjector(2, Config{
		Seed:  1,
		Links: map[Link]LinkFaults{{0, 1}: Partition(5)},
	})
	for seq := uint64(0); seq < 10; seq++ {
		if inj.Decide(0, 1, seq, 7).Drop != (seq >= 5) {
			t.Fatalf("seq %d: partition must drop every attempt", seq)
		}
	}
}

func TestInjectorCrashSchedule(t *testing.T) {
	inj := NewInjector(2, Config{Seed: 1, CrashAfter: map[int]uint64{1: 3}})
	for i := 0; i < 3; i++ {
		if inj.RecordSend(1) {
			t.Fatalf("crashed at send %d, budget is 3", i)
		}
	}
	if !inj.RecordSend(1) {
		t.Fatal("did not crash after budget")
	}
	if !inj.RecordSend(1) {
		t.Fatal("a crashed node came back")
	}
	if inj.RecordSend(0) {
		t.Fatal("unscheduled node crashed")
	}
}
