package train

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/models"
)

// within reports whether inner is a sub-slice of outer's backing array.
func within(outer, inner []float32) bool {
	for k := range outer {
		if &outer[k] == &inner[0] {
			return len(inner) <= len(outer)-k
		}
	}
	return false
}

// lendingPeer records whether every payload its worker sent was cut from
// that worker's own net.Grads().
type lendingPeer struct {
	comm.CtxPeer
	grads   []float32
	sends   int
	foreign int
}

func (p *lendingPeer) SendCtx(ctx context.Context, dst int, payload []float32, tos uint8, tag int) error {
	p.sends++
	if !within(p.grads, payload) {
		p.foreign++
	}
	return p.CtxPeer.SendCtx(ctx, dst, payload, tos, tag)
}

// TestExchangeBufferIsTheGradView: in a ring run the buffer the
// collective reduces is net.Grads() itself — every block a worker puts on
// the wire is a window of it, and after the exchange it holds the sum the
// optimizer steps on. There is no second model-sized gradient buffer to
// gather into or scatter from.
func TestExchangeBufferIsTheGradView(t *testing.T) {
	trainDS, _ := digitsData()
	o := digitsOptions()
	o.Workers = 2
	c, err := o.prepare()
	if err != nil {
		t.Fatal(err)
	}
	plane := newFabricPlane(o.Workers, o)
	r := newFixedRun(plane, c, models.NewHDCSmall, trainDS, nil, 3, o, nil)
	defer r.cancel()

	peers := make([]*lendingPeer, o.Workers)
	var wg sync.WaitGroup
	for id := range peers {
		w := newWorker(id, r.build, r.trainDS, o)
		peers[id] = &lendingPeer{CtxPeer: plane.peer(id), grads: w.net.Grads()}
		exchange := c.bind(r, peers[id])
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for iter := 0; iter < r.iters; iter++ {
				r.computeStep(w, iter, false)
				if _, err := exchange(r.ctx, w, iter); err != nil {
					t.Errorf("worker %d iter %d: %v", id, iter, err)
					return
				}
				r.commitStep(w, iter, time.Now(), nil, false)
			}
		}(id)
	}
	wg.Wait()
	for id, p := range peers {
		if p.sends == 0 || p.foreign != 0 {
			t.Errorf("worker %d: %d of %d sent blocks were not windows of net.Grads()", id, p.foreign, p.sends)
		}
	}
}

// TestIterationHalvesAllocateNoModelSizedBuffer pins what the flat arena
// bought: computeStep + commitStep around a no-op exchange allocate well
// under one model size per iteration (activations and the minibatch only).
func TestIterationHalvesAllocateNoModelSizedBuffer(t *testing.T) {
	trainDS, _ := digitsData()
	o := digitsOptions()
	o.Workers, o.BatchPerNode = 1, 4
	r := newFixedRun(newFabricPlane(1, o), ringCollective, models.NewHDCSmall, trainDS, nil, 0, o, nil)
	defer r.cancel()

	w := newWorker(0, r.build, r.trainDS, o)
	step := func(iter int) {
		r.computeStep(w, iter, false)
		r.commitStep(w, iter, time.Now(), nil, false)
	}
	step(0) // sizes the momentum and every layer's forward cache
	const iters = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for iter := 1; iter <= iters; iter++ {
		step(iter)
	}
	runtime.ReadMemStats(&after)
	perIter := int64(after.TotalAlloc-before.TotalAlloc) / iters
	model := w.net.SizeBytes()
	t.Logf("model %d B; %d B per iteration", model, perIter)
	if perIter > model/2 {
		t.Errorf("an iteration allocates %d bytes, model is %d: a model-sized buffer is back", perIter, model)
	}
}
