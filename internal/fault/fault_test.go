package fault

import (
	"slices"
	"testing"
)

func TestInjectorDeterministic(t *testing.T) {
	cfg := Config{
		Seed:    7,
		Default: LinkFaults{DropRate: 0.1, CorruptRate: 0.1, TruncateRate: 0.1},
	}
	a := NewInjector(4, cfg)
	b := NewInjector(4, cfg)
	for seq := uint64(0); seq < 500; seq++ {
		va := a.Decide(0, 1, seq)
		vb := b.Decide(0, 1, seq)
		if va != vb {
			t.Fatalf("seq %d: %+v != %+v", seq, va, vb)
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
		if a.Decide(0, 1, seq).Drop == b.Decide(0, 1, seq).Drop {
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
		if inj.Decide(0, 1, seq).Drop {
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
		drop := inj.Decide(0, 1, seq).Drop
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
		if !inj.Decide(0, 1, seq).Drop {
			t.Fatal("override link did not drop")
		}
		if inj.Decide(1, 2, seq).Drop {
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
		if inj.Decide(0, 1, seq).Drop != (seq >= 5) {
			t.Fatalf("seq %d: partition must drop every frame from seq 5", seq)
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

// TestInjectorDrawsPinned pins the frames a seed faults, so a recorded
// chaos schedule replays the same faults. The values were recorded from
// the injector's first-attempt draws, before it stopped drawing per
// retransmission attempt.
func TestInjectorDrawsPinned(t *testing.T) {
	inj := NewInjector(4, Config{Seed: 42, Default: LinkFaults{DropRate: 0.1, CorruptRate: 0.1, TruncateRate: 0.1}})
	var drops, corrupts, bits, truncs []int
	for seq := uint64(0); seq < 64; seq++ {
		v := inj.Decide(2, 3, seq)
		if v.Drop {
			drops = append(drops, int(seq))
		}
		if v.CorruptBit >= 0 {
			corrupts = append(corrupts, int(seq))
			bits = append(bits, v.CorruptBit)
		}
		if v.TruncateBytes > 0 {
			truncs = append(truncs, int(seq))
		}
	}
	for _, c := range []struct {
		name      string
		got, want []int
	}{
		{"dropped", drops, []int{2, 5, 11, 15, 16, 22, 33, 49, 51, 60, 62, 63}},
		{"corrupted", corrupts, []int{3, 10, 14, 40, 54, 56, 57}},
		{"corrupt bits", bits, []int{676947, 461802, 258933, 294004, 248591, 642758, 520739}},
		{"truncated", truncs, []int{6, 12, 34, 38, 56}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s frames %v, want %v", c.name, c.got, c.want)
		}
	}
}
