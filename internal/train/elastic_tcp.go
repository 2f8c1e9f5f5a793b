// Elastic training over real sockets: the RunElastic recovery machinery
// (eviction, epoch-scoped rendezvous, ≤1-iteration replay, durable
// checkpoints) running on the tcpfabric data plane with membership
// carried over the TCP control channel — plus the grow half of the
// autoscale loop. When Options.Join is set, a worker evicted by the
// failure detector is restarted: it loads the newest valid checkpoint,
// rejoins through the coordinator's epoch sequence, and is spliced back
// into the ring with its state synchronized bit-exactly from a survivor.
package train

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"inceptionn/internal/data"
	"inceptionn/internal/elastic"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/obs"
)

// tcpElastic is the mutable shared state of one RunElasticTCP invocation
// beyond what elasticRun carries: the per-id control clients (replaced
// across worker generations), the rejoin bookkeeping, and the run
// outcome accumulators.
type tcpElastic struct {
	run *elasticRun
	o   Options
	srv *elastic.CtrlServer

	partitionAfter time.Duration
	ctrlSeqs       []atomic.Uint64 // per-id chaos sequence, across client generations
	obsJoinRuns    *obs.Counter

	wg sync.WaitGroup

	mu        sync.Mutex
	clients   []*elastic.Client
	rejoining []bool
	genCancel []context.CancelFunc // cancels the id's current worker generation
	genDone   []chan struct{}      // closed when that generation has fully exited
	finishing bool
	errs      []error // every worker generation's exit
}

// RunElasticTCP trains like RunElastic but over loopback TCP sockets:
// gradients cross tcpfabric (compressed by its NIC engine model when
// o.Compress is set — Options.Processor is ignored, bound selects the
// engines' error bound), and membership runs over the control channel
// listening on o.CoordAddr. o.Chaos faults both planes: data-plane
// faults through the fabric's injector and control-plane faults through
// links addressed to elastic.CtrlPeer. With o.Join, evicted workers are
// revived and rejoin the ring (see tcpElastic.rejoin).
func RunElasticTCP(build Builder, trainDS, testDS data.Dataset, iters int, o Options, bound fpcodec.Bound) (Result, error) {
	ck, err := prepareElastic(build, iters, &o, true)
	if err != nil {
		return Result{}, err
	}
	plane, err := newTCPPlane(o.Workers, o, bound)
	if err != nil {
		return Result{}, err
	}
	defer plane.Close()
	r := newElasticRun(plane, build, trainDS, testDS, iters, o, ck)
	defer r.cancel()
	defer r.coord.Close()
	addr := o.CoordAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	srv, err := elastic.ServeCtrl(addr, r.coord)
	if err != nil {
		return Result{}, err
	}
	defer srv.Close()

	// The client-side partition threshold tracks the server-side suspect
	// threshold: a worker that cannot reach the coordinator halts on
	// roughly the same clock that would evict it, so neither side lingers
	// on a view the other has abandoned.
	partitionAfter := 2 * time.Second
	if o.SuspectAfter > 0 {
		partitionAfter = 2 * o.SuspectAfter
	}
	t := &tcpElastic{
		run: r, o: o, srv: srv,
		partitionAfter: partitionAfter,
		ctrlSeqs:       make([]atomic.Uint64, o.Workers),
		obsJoinRuns:    o.Obs.Counter("elastic_join_workers"),
		clients:        make([]*elastic.Client, o.Workers),
		rejoining:      make([]bool, o.Workers),
		genCancel:      make([]context.CancelFunc, o.Workers),
		genDone:        make([]chan struct{}, o.Workers),
	}
	r.member = t.member

	// A node's transport anomalies (exhausted retransmits, stream desync)
	// are soft evidence for the failure detector, not a run abort: in an
	// elastic run the usual cause is a dead peer, and the membership
	// protocol — not the fabric — decides what that means.
	plane.watch(r.ctx, func(id int, err error) bool {
		r.coord.ReportAnomaly(id, err)
		return true
	})

	view := r.coord.View()
	for _, id := range view.Members {
		cl, err := t.dial(id)
		if err != nil {
			return Result{}, fmt.Errorf("train: worker %d control dial: %w", id, err)
		}
		t.setClient(id, cl)
		// Establish the heartbeat baseline before the workers spin up:
		// model construction can outlast the staleness limit, and a node
		// must not be declared dead before it ever got to live.
		cl.Beat(id)
	}
	defer t.closeClients()

	if o.Join {
		go t.janitor()
	}
	for _, id := range view.Members {
		t.wg.Add(1)
		go func(id int) {
			defer t.wg.Done()
			t.finish(t.runWorker(id, ck, false))
		}(id)
	}
	// Two-phase wait: a rejoin in flight holds the WaitGroup, but one that
	// slips in between the first Wait returning and the finishing flag
	// being set is caught by the second Wait (rejoin checks the flag under
	// the same lock).
	t.wg.Wait()
	t.mu.Lock()
	t.finishing = true
	t.mu.Unlock()
	t.wg.Wait()

	t.mu.Lock()
	defer t.mu.Unlock()
	return r.outcome(t.errs)
}

// member hands a worker its current control client. Generations of the
// same id (crash, then rejoin) swap the slot under the lock.
func (t *tcpElastic) member(id int) elastic.Membership {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.clients[id]
}

func (t *tcpElastic) setClient(id int, cl *elastic.Client) {
	t.mu.Lock()
	if old := t.clients[id]; old != nil {
		old.Close()
	}
	t.clients[id] = cl
	t.mu.Unlock()
}

func (t *tcpElastic) closeClients() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, cl := range t.clients {
		if cl != nil {
			cl.Close()
		}
	}
}

func (t *tcpElastic) dial(id int) (*elastic.Client, error) {
	return elastic.DialCtrl(t.srv.Addr(), id, elastic.CtrlOptions{
		PartitionAfter: t.partitionAfter,
		Chaos:          t.run.plane.inj,
		Seq:            &t.ctrlSeqs[id],
	})
}

// runWorker runs one worker generation with a background heartbeat.
// The training loop beats once per iteration, but a worker parked in a
// blocked exchange (its peer just died) goes silent for as long as the
// failure detector takes to evict the peer — exactly long enough for
// its own staleness to race the peer's, and a healthy-but-blocked
// survivor must never lose that race. Beating from a goroutine makes
// the heartbeat mean process liveness, which is the right reading here:
// data-plane hangs are bounded by StepTimeout, and control-plane
// partitions still silence the beats (they are dropped on the floor),
// so both real failure modes keep their detection paths.
func (t *tcpElastic) runWorker(id int, ck *Checkpoint, joining bool) error {
	// Each generation gets its own context under the run's: a rejoin for
	// the same id cancels it (and waits for the exit) before re-admitting
	// the node, so a superseded generation parked in a data-plane receive
	// can never consume a frame meant for its replacement — the streams
	// are per-link FIFOs, and one stolen frame desyncs the whole ring.
	gctx, gcancel := context.WithCancel(t.run.ctx)
	done := make(chan struct{})
	t.mu.Lock()
	t.genCancel[id], t.genDone[id] = gcancel, done
	t.mu.Unlock()
	defer close(done)
	defer gcancel()

	if t.o.SuspectAfter > 0 {
		every := t.o.SuspectAfter / 4
		if every < time.Millisecond {
			every = time.Millisecond
		}
		go func() {
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if m := t.member(id); m != nil {
						m.Beat(id)
					}
				case <-gctx.Done():
					return
				}
			}
		}()
	}
	err := t.run.worker(gctx, id, ck, joining)
	if gctx.Err() != nil && t.run.ctx.Err() == nil {
		return errWorkerDone // superseded by a newer generation
	}
	return err
}

// finish folds one worker generation's exit into the run's.
func (t *tcpElastic) finish(err error) {
	t.mu.Lock()
	t.errs = append(t.errs, err)
	t.mu.Unlock()
	if failsRun(err) {
		t.run.cancel() // unblock the siblings
	}
}

// janitor watches the coordinator's epoch sequence and starts a rejoin
// for every member the failure detector evicts (graceful departures have
// no death cause and are left alone). It observes the same serialized
// event stream the workers do, so a join it triggers can never race past
// the eviction that motivated it.
func (t *tcpElastic) janitor() {
	known := t.run.coord.View()
	for {
		v, _, err := t.run.coord.WaitEvent(t.run.ctx, known.Epoch)
		if err != nil {
			return // run over or coordinator closed
		}
		for _, id := range known.Members {
			if !v.Contains(id) && t.run.coord.DeathCause(id) != nil {
				t.rejoin(id)
			}
		}
		known = v
	}
}

// rejoin starts a replacement worker for an evicted id (at most one at a
// time per id, and none once the run is finishing).
func (t *tcpElastic) rejoin(id int) {
	t.mu.Lock()
	if t.rejoining[id] || t.finishing {
		t.mu.Unlock()
		return
	}
	t.rejoining[id] = true
	t.wg.Add(1)
	t.mu.Unlock()
	go func() {
		defer t.wg.Done()
		defer func() {
			t.mu.Lock()
			t.rejoining[id] = false
			t.mu.Unlock()
		}()
		t.finish(t.rejoinWorker(id))
	}()
}

// rejoinWorker models the failed process restarting on the same host:
// revive its transport, load the newest valid checkpoint for a warm
// start, re-admit the id through the coordinator's epoch sequence
// (retrying while a partition window is still open), and run a joining
// worker that synchronizes exact state at the rendezvous. Returns
// errWorkerDone if the run ends before the node gets back in.
func (t *tcpElastic) rejoinWorker(id int) error {
	// Tear down the previous generation first, before the coordinator can
	// re-admit the id: once Join succeeds, survivors start emitting
	// join-epoch frames toward this node, and a leftover blocked receive
	// from the old generation would swallow one of them (see runWorker).
	t.mu.Lock()
	gcancel, done := t.genCancel[id], t.genDone[id]
	t.mu.Unlock()
	if gcancel != nil {
		gcancel()
	}
	if done != nil {
		select {
		case <-done:
		case <-t.run.ctx.Done():
			return errWorkerDone
		}
	}
	if inj := t.run.plane.inj; inj != nil {
		inj.Revive(id)
	}
	var ck *Checkpoint
	if t.o.CheckpointDir != "" {
		if loaded, _, err := LoadLatestCheckpoint(t.o.CheckpointDir); err == nil && loaded.Universe == t.o.Workers {
			ck = loaded
		}
	}
	var cl *elastic.Client
	for cl == nil {
		if t.run.ctx.Err() != nil {
			return errWorkerDone
		}
		c, err := t.dial(id)
		if err == nil {
			if _, jerr := c.Join(id); jerr == nil {
				cl = c
				break
			}
			c.Close()
		}
		select {
		case <-time.After(100 * time.Millisecond):
		case <-t.run.ctx.Done():
			return errWorkerDone
		}
	}
	t.setClient(id, cl)
	t.obsJoinRuns.Add(1)
	return t.runWorker(id, ck, true)
}
