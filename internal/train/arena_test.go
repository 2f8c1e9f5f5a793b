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

// TestExchangeBufferIsTheGradView: in an unarmed ring run the buffer the
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
	r := &fixedRun{session: newSession(plane, models.NewHDCSmall, trainDS, nil, 3, o), coll: c}
	defer r.cancel()

	peers := make([]*lendingPeer, o.Workers)
	var wg sync.WaitGroup
	for id := range peers {
		w := newWorker(id, r.build, r.trainDS, o, false)
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
				r.commitStep(w, iter, time.Now(), nil, o.Workers, false)
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
// under one model size per iteration (activations and the minibatch only),
// and arming the replay snapshots adds exactly their three model-sized
// copies — weights, momentum, gradient — and nothing else.
func TestIterationHalvesAllocateNoModelSizedBuffer(t *testing.T) {
	trainDS, _ := digitsData()
	o := digitsOptions()
	o.Workers, o.BatchPerNode = 1, 4
	s := newSession(newFabricPlane(1, o), models.NewHDCSmall, trainDS, nil, 0, o)
	defer s.cancel()

	perIter := func(w *worker) int64 {
		const iters = 8
		step := func(iter int) {
			s.computeStep(w, iter, false)
			s.commitStep(w, iter, time.Now(), nil, 1, false)
		}
		step(0) // sizes the momentum and every layer's forward cache
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for iter := 1; iter <= iters; iter++ {
			step(iter)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / iters
	}

	// The elastic runner's worker: snapshots record its seekable cursor.
	w := newWorker(0, s.build, s.trainDS, o, true)
	model := w.net.SizeBytes()
	unarmed := perIter(w)
	if unarmed > model/2 {
		t.Errorf("unarmed iteration allocates %d bytes, model is %d: a model-sized buffer is back", unarmed, model)
	}
	w.armSnapshots()
	armed := perIter(w)
	t.Logf("model %d B; per iteration %d B unarmed, %d B armed", model, unarmed, armed)
	if extra := armed - unarmed; extra < 3*model || extra > 3*model+model/8 {
		t.Errorf("arming snapshots adds %d bytes per iteration, want three model-sized copies (3 × %d)", extra, model)
	}
}

// TestElasticTCPCompressedCountsRawBytes: the TCP fabric measures its
// pre-codec bytes, so a compressed elastic TCP run reports a raw total —
// on a clean run exactly the ring's closed form, 2(N−1) gradient vectors
// per iteration — where it used to report none and print no reduction
// ratio.
func TestElasticTCPCompressedCountsRawBytes(t *testing.T) {
	trainDS, testDS := digitsData()
	const iters = 3
	o := elasticTCPOptions()
	o.Compress = true
	res, err := Run(models.NewHDCSmall, trainDS, testDS, iters, o)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2*(o.Workers-1)) * int64(4*len(res.FinalWeights)) * iters; res.RawBytes != want {
		t.Errorf("RawBytes = %d, want exactly %d", res.RawBytes, want)
	}
	if res.WireBytes == 0 || res.WireBytes >= res.RawBytes {
		t.Errorf("WireBytes = %d against %d raw: no reduction measured", res.WireBytes, res.RawBytes)
	}
}
