// Worker generations and rejoin: the grow half of the elastic run's
// autoscale loop. Each worker runs as a generation with a background
// heartbeat; when Options.Join is set, a worker evicted by the failure
// detector is restarted: it loads the newest valid checkpoint, rejoins
// through the coordinator's epoch sequence, and is spliced back into the
// ring with its state synchronized bit-exactly from a survivor.

package train

import (
	"context"
	"time"
)

// generation runs one worker generation with a background heartbeat.
// The training loop beats once per iteration, but a worker parked in a
// blocked exchange (its peer just died) goes silent for as long as the
// failure detector takes to evict the peer — exactly long enough for
// its own staleness to race the peer's, and a healthy-but-blocked
// survivor must never lose that race. Beating the coordinator from a
// goroutine makes the heartbeat mean the generation is alive; data-plane
// hangs are bounded by StepTimeout instead.
func (r *elasticRun) generation(id int, ck *Checkpoint, joining bool) error {
	// Each generation gets its own context under the run's: a rejoin for
	// the same id cancels it (and waits for the exit) before re-admitting
	// the node, so a superseded generation parked in a data-plane receive
	// can never consume a frame meant for its replacement — the streams
	// are per-link FIFOs, and one stolen frame desyncs the whole ring.
	gctx, gcancel := context.WithCancel(r.ctx)
	done := make(chan struct{})
	r.mu.Lock()
	r.genCancel[id], r.genDone[id] = gcancel, done
	r.mu.Unlock()
	defer close(done)
	defer gcancel()

	if r.o.SuspectAfter > 0 {
		every := r.o.SuspectAfter / 4
		if every < time.Millisecond {
			every = time.Millisecond
		}
		go func() {
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					r.coord.Beat(id)
				case <-gctx.Done():
					return
				}
			}
		}()
	}
	err := r.worker(gctx, id, ck, joining)
	if gctx.Err() != nil && r.ctx.Err() == nil {
		return errWorkerDone // superseded by a newer generation
	}
	return err
}

// janitor watches the coordinator's epoch sequence and starts a rejoin
// for every member the failure detector evicts (graceful departures have
// no death cause and are left alone). It observes the same serialized
// event stream the workers do, so a join it triggers can never race past
// the eviction that motivated it.
func (r *elasticRun) janitor() {
	known := r.coord.View()
	for {
		v, err := r.coord.AwaitEpoch(r.ctx, -1, known.Epoch)
		if err != nil {
			return // run over or coordinator closed
		}
		for _, id := range known.Members {
			if !v.Contains(id) && r.coord.DeathCause(id) != nil {
				r.rejoin(id)
			}
		}
		known = v
	}
}

// rejoin starts a replacement generation for an evicted id (at most one
// at a time per id, and none once the run is finishing).
func (r *elasticRun) rejoin(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rejoining[id] || r.finishing {
		return
	}
	r.rejoining[id] = true
	r.spawn(func() error {
		defer func() {
			r.mu.Lock()
			r.rejoining[id] = false
			r.mu.Unlock()
		}()
		return r.rejoinWorker(id)
	})
}

// rejoinWorker models the failed process restarting on the same host:
// revive its transport, load the newest valid checkpoint for a warm
// start, re-admit the id through the coordinator's epoch sequence, and
// run a joining worker that synchronizes exact state at the rendezvous.
// Returns errWorkerDone if the run ends before the node gets back in.
func (r *elasticRun) rejoinWorker(id int) error {
	// Tear down the previous generation first, before the coordinator can
	// re-admit the id: once Join succeeds, survivors start emitting
	// join-epoch frames toward this node, and a leftover blocked receive
	// from the old generation would swallow one of them (see generation).
	r.mu.Lock()
	gcancel, done := r.genCancel[id], r.genDone[id]
	r.mu.Unlock()
	if gcancel != nil {
		gcancel()
	}
	if done != nil {
		select {
		case <-done:
		case <-r.ctx.Done():
			return errWorkerDone
		}
	}
	if inj := r.plane.inj; inj != nil {
		inj.Revive(id)
	}
	var ck *Checkpoint
	if r.o.CheckpointDir != "" {
		if loaded, _, err := LoadLatestCheckpoint(r.o.CheckpointDir); err == nil && loaded.Universe == r.o.Workers {
			ck = loaded
		}
	}
	if r.ctx.Err() != nil {
		return errWorkerDone
	}
	if _, err := r.coord.Join(id); err != nil {
		return errWorkerDone // the coordinator closed: the run is over
	}
	r.joinRuns.Add(1)
	return r.generation(id, ck, true)
}
