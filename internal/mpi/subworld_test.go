package mpi

import (
	"context"
	"sync"
	"testing"

	"inceptionn/internal/comm"
)

// TestSubWorldCollectives runs an all-reduce over a strict subset of the
// fabric — the reconfigured-ring case: after losing node 1, the survivors
// {0, 2, 3} rebuild their communicator and their collectives must neither
// touch nor need the dead node.
func TestSubWorldCollectives(t *testing.T) {
	f := comm.NewFabric(4, nil)
	members := []int{0, 2, 3}
	var mu sync.Mutex
	results := make(map[int][]float32)
	var wg sync.WaitGroup
	for _, id := range members {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := SubWorld(f.Endpoint(id), members)
			if err != nil {
				t.Error(err)
				return
			}
			if c.Size() != 3 {
				t.Errorf("node %d: Size = %d, want 3", id, c.Size())
			}
			vec := []float32{float32(id + 1), float32(10 * (id + 1))}
			if err := c.AllReduceCtx(context.Background(), vec); err != nil {
				t.Error(err)
			}
			mu.Lock()
			results[id] = vec
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	want := []float32{1 + 3 + 4, 10 + 30 + 40}
	for _, id := range members {
		got := results[id]
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("node %d: AllReduce = %v, want %v", id, got, want)
		}
	}
}

func TestSubWorldValidation(t *testing.T) {
	f := comm.NewFabric(4, nil)
	p := f.Endpoint(0)
	if _, err := SubWorld(p, []int{0, 4}); err == nil {
		t.Error("out-of-range member accepted")
	}
	if _, err := SubWorld(p, []int{0, 2, 2}); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := SubWorld(p, []int{1, 2}); err == nil {
		t.Error("non-member self accepted")
	}
	c, err := SubWorld(p, []int{3, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Rank() != 1 {
		t.Errorf("Rank = %d, want 1 (position in member list)", c.Rank())
	}
}
