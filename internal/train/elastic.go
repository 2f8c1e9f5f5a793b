// Elastic ring training: the run survives worker death. A failed exchange
// triggers the membership protocol in internal/elastic — survivors abort
// the in-flight step, agree on the shrunken ring, roll back to the last
// iteration every survivor retains, and replay it from local snapshots
// with the average renormalized to the live member count. Periodic and
// on-failure checkpoints make the whole run durable and resumable.

package train

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"inceptionn/internal/data"
	"inceptionn/internal/elastic"
	"inceptionn/internal/fault"
	"inceptionn/internal/obs"
	"inceptionn/internal/ring"
)

// ErrInterrupted reports that a run stopped early on request (Options.Stop)
// after the workers agreed on a halt iteration and wrote a final
// checkpoint; resume with Options.Resume to continue it.
var ErrInterrupted = errors.New("train: run interrupted; resume from checkpoint to continue")

// errWorkerDone is an internal sentinel: the worker left the run without
// failing it (it crashed and self-reported, or was evicted).
var errWorkerDone = errors.New("train: worker left the membership")

// elasticWorker extends the worker (seekable loader, replay snapshots
// armed) with its epoch-filtering data-plane endpoint.
type elasticWorker struct {
	*worker
	peer *elastic.Peer
	// ctx scopes this worker *generation*: cancelling it aborts every
	// blocked wait (exchange receives, gathers, sync transfers) without
	// consuming in-flight frames, so a superseded generation can be torn
	// down before its replacement starts reading the same link streams.
	// For runs without rejoin it is simply the run context.
	ctx context.Context
}

// newElasticWorker builds worker id, restored from ck when resuming.
func newElasticWorker(id int, build Builder, trainDS data.Dataset, o Options, ck *Checkpoint) (*elasticWorker, error) {
	ew := &elasticWorker{worker: newWorker(id, build, trainDS, o, true)}
	ew.armSnapshots()
	if ck != nil {
		if err := ew.setState(ck.Weights, ck.Velocity); err != nil {
			return nil, err
		}
		ew.sl.Seek(ck.Cursors[id])
		if res := ck.Residuals[id]; res != nil {
			if ew.residual == nil || len(res) != len(ew.residual) {
				return nil, fmt.Errorf("train: checkpoint residual for worker %d does not match run options", id)
			}
			copy(ew.residual, res)
		}
	}
	return ew, nil
}

// syncTagOffset is the in-band tag (relative to the epoch's TagBase) of
// the join state-sync message. It sits far above every collective's tag
// range (ring/mpi/hierarchy stay below ~2.4e4) and below EpochTagStride,
// so the epoch-filtering peer treats it like any other same-epoch frame.
const syncTagOffset = 1 << 19

// recoveryWait bounds how long an elastic worker whose exchange failed
// waits for a membership verdict before treating the fault as fatal
// (nobody died; the error stands).
const recoveryWait = 5 * time.Second

// elasticRun is the shared state of one elastic run. Every worker calls
// the run's coordinator directly.
type elasticRun struct {
	*session
	startIter int
	coord     *elastic.Coordinator

	replays  *obs.Counter   // elastic_replays (nil-safe)
	ckptHist *obs.Histogram // checkpoint_write_seconds (nil-safe)
	joinRuns *obs.Counter   // elastic_join_workers, with Options.Join only (nil-safe)

	// finished holds what each worker that completed or halted left behind:
	// its weights, and — from the one that led the final view — the final
	// accuracy and loss. Under session.mu.
	finished map[int]Result

	// Worker generations (see spawn), under session.mu: every generation's
	// exit, and for rejoins the per-id generation in flight — its cancel
	// and a channel closed once it has fully exited.
	gens      sync.WaitGroup
	errs      []error
	finishing bool
	rejoining []bool
	genCancel []context.CancelFunc
	genDone   []chan struct{}
}

// newElasticRun starts the membership side of a run over plane: the
// coordinator, with the members that were dead at checkpoint ck (nil when
// starting fresh) re-declared so the resumed view matches. The caller
// closes r.coord.
func newElasticRun(plane *dataPlane, build Builder, trainDS, testDS data.Dataset, iters int, o Options, ck *Checkpoint) *elasticRun {
	r := &elasticRun{
		session:  newSession(plane, build, trainDS, testDS, iters, o),
		coord:    elastic.NewCoordinator(o.Workers, elastic.Config{SuspectAfter: o.SuspectAfter, Obs: o.Obs}),
		replays:  o.Obs.Counter("elastic_replays"),
		ckptHist: o.Obs.Histogram("checkpoint_write_seconds"),
		finished: make(map[int]Result),

		rejoining: make([]bool, o.Workers),
		genCancel: make([]context.CancelFunc, o.Workers),
		genDone:   make([]chan struct{}, o.Workers),
	}
	if ck != nil {
		r.startIter = ck.NextIter
		// The epoch number may differ from the checkpoint's; tags only matter
		// within one process lifetime.
		for id := 0; id < o.Workers; id++ {
			if !ck.contains(id) {
				r.coord.ReportDead(id, fmt.Errorf("train: node %d was dead at checkpoint (epoch %d)", id, ck.Epoch))
			}
		}
	}
	return r
}

// finish records worker w's end state — its weight view, handed over: the
// worker trains no further — and the final view's leader also evaluates its
// replica.
func (r *elasticRun) finish(w *elasticWorker, leader bool) {
	end := Result{FinalWeights: w.net.Weights()}
	if leader {
		end.FinalAcc, end.FinalLoss = evaluate(w.net, r.testDS, r.o.EvalSamples)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finished[w.id] = end
}

// failsRun reports whether a worker's exit is a real fault, as opposed to
// success, leaving the membership, or halting on request.
func failsRun(err error) bool {
	return err != nil && !errors.Is(err, errWorkerDone) && !errors.Is(err, ErrInterrupted)
}

// spawn runs one worker generation's body and folds its exit into the
// run's; a real fault cancels the run to unblock the siblings. A caller
// that may race wait (a rejoin) calls it under session.mu after checking
// finishing.
func (r *elasticRun) spawn(body func() error) {
	r.gens.Add(1)
	go func() {
		defer r.gens.Done()
		err := body()
		r.mu.Lock()
		r.errs = append(r.errs, err)
		r.mu.Unlock()
		if failsRun(err) {
			r.cancel()
		}
	}()
}

// wait joins every worker generation and returns the run's outcome. Two
// phases: a rejoin in flight holds the WaitGroup, but one that slips in
// between the first Wait returning and finishing being set is caught by
// the second (rejoin checks the flag under the same lock).
func (r *elasticRun) wait() (Result, error) {
	r.gens.Wait()
	r.mu.Lock()
	r.finishing = true
	r.mu.Unlock()
	r.gens.Wait()
	return r.outcome()
}

// outcome folds the generations' exits (in any order) and end states into
// the run's result, once every generation has exited.
func (r *elasticRun) outcome() (Result, error) {
	interrupted := false
	var hard []error
	for _, err := range r.errs {
		if failsRun(err) {
			hard = append(hard, err)
		}
		interrupted = interrupted || errors.Is(err, ErrInterrupted)
	}
	if err := firstError(hard); err != nil {
		return Result{}, err
	}
	// Completed workers depart the membership, so the final view may be
	// empty: the result leader is the lowest id that actually finished and
	// stored weights (completion order mirrors view leadership — the
	// lowest live id runs the evaluations).
	r.mu.Lock()
	lead := -1
	for id := range r.finished {
		if lead < 0 || id < lead {
			lead = id
		}
	}
	end := r.finished[lead]
	r.mu.Unlock()
	if lead < 0 {
		var causes []string
		for id := 0; id < r.o.Workers; id++ {
			if c := r.coord.DeathCause(id); c != nil {
				causes = append(causes, fmt.Sprintf("node %d: %v", id, c))
			}
		}
		detail := "no death evidence recorded"
		if len(causes) > 0 {
			detail = strings.Join(causes, "; ")
		}
		return Result{}, fmt.Errorf("train: no member completed the run (%s)", detail)
	}
	res := r.result()
	res.FinalWeights, res.FinalAcc, res.FinalLoss = end.FinalWeights, end.FinalAcc, end.FinalLoss
	if interrupted {
		return res, ErrInterrupted
	}
	return res, nil
}

// runElastic is Run under the Elastic recovery: the ring over o.Plane,
// surviving worker death. Every worker calls the run's in-process
// coordinator; on the TCP plane o.Chaos faults the wire and, with o.Join,
// evicted workers are revived and rejoin the ring (see elasticRun.rejoin).
func runElastic(build Builder, trainDS, testDS data.Dataset, iters int, o Options) (Result, error) {
	ck, err := resumePoint(build, iters, o)
	if err != nil {
		return Result{}, err
	}
	plane, err := newPlane(o.Workers, o)
	if err != nil {
		return Result{}, err
	}
	defer plane.Close()
	r := newElasticRun(plane, build, trainDS, testDS, iters, o, ck)
	defer r.cancel()
	defer r.coord.Close()

	// Link evidence feeds the failure detector, not a run abort: in an
	// elastic run the usual cause is a dead peer, and the membership
	// protocol — not the fabric — decides what that means. The in-process
	// fabric's evidence is its receive timeouts; the TCP fabric reports
	// its anomalies (exhausted retransmits, stream desync) out of band.
	if plane.fabric != nil && o.SuspectAfter > 0 {
		r.coord.WatchFabric(plane.fabric)
	}
	plane.watch(r.ctx, func(id int, err error) bool {
		r.coord.ReportAnomaly(id, err)
		return true
	})

	view := r.coord.View()
	for _, id := range view.Members {
		// Establish the heartbeat baseline before the workers spin up:
		// model construction can outlast the staleness limit, and a node
		// must not be declared dead before it ever got to live.
		r.coord.Beat(id)
	}
	if o.Join {
		r.joinRuns = o.Obs.Counter("elastic_join_workers")
		go r.janitor()
	}
	for _, id := range view.Members {
		r.spawn(func() error { return r.generation(id, ck, false) })
	}
	return r.wait()
}

// resumePoint loads the checkpoint an elastic run resumes from when
// o.Resume asks for one (nil when starting fresh) and checks it against
// the run.
func resumePoint(build Builder, iters int, o Options) (*Checkpoint, error) {
	if !o.Resume {
		return nil, nil
	}
	if o.CheckpointDir == "" {
		return nil, fmt.Errorf("train: Resume requires CheckpointDir")
	}
	ck, _, err := LoadLatestCheckpoint(o.CheckpointDir)
	switch {
	case errors.Is(err, ErrNoCheckpoint):
		return nil, nil // fresh start
	case err != nil:
		return nil, err
	}
	numParams := build(rand.New(rand.NewSource(o.Seed))).NumParams()
	switch {
	case ck.Universe != o.Workers:
		return nil, fmt.Errorf("train: checkpoint universe %d, run has %d workers", ck.Universe, o.Workers)
	case len(ck.Weights) != numParams:
		return nil, fmt.Errorf("train: checkpoint has %d weights, model has %d", len(ck.Weights), numParams)
	case ck.NextIter > iters:
		return nil, fmt.Errorf("train: checkpoint is at iteration %d, past the requested %d", ck.NextIter, iters)
	case len(ck.Members) == 0:
		return nil, fmt.Errorf("train: checkpoint has no live members")
	}
	return ck, nil
}

func (ck *Checkpoint) contains(id int) bool {
	for _, m := range ck.Members {
		if m == id {
			return true
		}
	}
	return false
}

// worker is one elastic training goroutine. It returns nil on normal
// completion, errWorkerDone if it crashed (self-reported) or was evicted,
// ErrInterrupted on a graceful stop, and a hard error otherwise. A
// joining worker (already admitted to the membership by the caller)
// rendezvouses first to splice into the ring and synchronize its state
// from a survivor before it trains.
func (r *elasticRun) worker(ctx context.Context, id int, ck *Checkpoint, joining bool) error {
	o := r.o
	w, err := newElasticWorker(id, r.build, r.trainDS, o, ck)
	if err != nil {
		return err
	}
	w.ctx = ctx
	w.peer = elastic.NewPeer(r.plane.peer(id))

	iter := r.startIter
	pending := false   // a snapshot for iter exists and its exchange has not committed
	recovered := false // last committed iteration was a post-recovery replay
	// view is the membership this worker last operated under — the epoch
	// its exchanges commit under, its checkpoint gathers are keyed by, and
	// the one it halts or completes with. A successful exchange implies
	// every participant held the same view (epoch-banded tags), so these
	// decisions are identical across members by construction.
	view := r.coord.View()
	if joining {
		// Catch up before emitting any traffic: meet the survivors at the
		// join epoch's rendezvous, receive the exact pre-replay weights and
		// optimizer state, and enter the loop as a full member.
		iter, pending, view, err = r.rendezvous(w, id, iter, pending, true)
		if err != nil {
			return err
		}
		recovered = true
	}
	for iter < r.iters {
		passStart := time.Now()
		if err := w.ctx.Err(); err != nil {
			return err // a sibling hit a hard fault
		}
		// Graceful stop: agree on a halt boundary no member has exchanged
		// yet, so everyone stops with identical weights.
		if o.Stop != nil {
			select {
			case <-o.Stop:
				r.coord.ProposeHalt(iter)
			default:
			}
		}
		if h := r.coord.HaltIter(); h >= 0 && iter >= h {
			return r.halt(w, id, iter, pending, view)
		}
		r.coord.Beat(id)
		cur := r.coord.View()
		if !cur.Contains(id) {
			return errWorkerDone
		}
		if cur.Epoch != view.Epoch {
			// The membership moved while this worker was between exchanges:
			// it must rendezvous before emitting any new-epoch traffic.
			iter, pending, view, err = r.rendezvous(w, id, iter, pending, false)
			if err != nil {
				return err
			}
			recovered = true
			continue
		}
		view = cur
		if !pending {
			r.computeStep(w.worker, iter, id == view.Leader())
			pending = true
		}

		// The exchange runs under the epoch context: a death declaration
		// cancels it on every survivor at once.
		exCtx, exCancel := context.WithCancel(w.ctx)
		stopLink := context.AfterFunc(r.coord.EpochContext(view.Epoch), exCancel)
		ropt := ring.Options{
			StepTimeout: o.StepTimeout,
			ChunkSize:   o.ChunkSize,
			TagOffset:   elastic.TagBase(view.Epoch),
			Obs:         o.Obs,
			ObsIter:     iter,
		}
		tx := time.Now()
		exErr := ring.AllReduceGroupCtx(exCtx, w.peer, view.Members, w.net.Grads(), o.gradTos(), r.plane.finalize, ropt)
		stopLink()
		exCancel()
		r.tallies[id].comm += time.Since(tx).Nanoseconds()

		if exErr != nil && errors.Is(exErr, fault.ErrCrashed) {
			// This node is the casualty: its own transport refuses service.
			// Self-report (a real process would exit and drop its lease) and
			// leave; the survivors reconfigure around us.
			r.coord.ReportDead(id, exErr)
			return errWorkerDone
		}
		if exErr == nil {
			// Committed: a completed epoch-E exchange is the full sum over
			// E's members no matter what the membership did meanwhile — a
			// concurrent eviction or departure must not turn success into a
			// spurious replay (and a sibling's graceful exit at the final
			// iteration must not perturb this worker's result). If the
			// epoch did move, the next loop top rendezvouses, and its minimum
			// iteration rolls this commit back deterministically when a survivor
			// aborted the same iteration.
			// Renormalize by the members that contributed.
			r.commitStep(w.worker, iter, passStart, nil, len(view.Members), id == view.Leader())
			pending = false
			iter++
			if o.CheckpointDir != "" && iter < r.iters &&
				(recovered || (o.CheckpointEvery > 0 && (iter-r.startIter)%o.CheckpointEvery == 0)) {
				if err := r.checkpoint(w, id, iter, w.sl.Cursor(), w.residual, view); err != nil {
					return err
				}
				recovered = false
			}
			continue
		}
		if r.coord.View().Epoch == view.Epoch {
			// The exchange failed but nobody has been declared dead yet.
			// Surface the evidence and wait (bounded) for a verdict: either
			// the epoch advances and recovery proceeds, or the fault was not
			// a membership event and it stands as the run's error.
			r.coord.ReportAnomaly(id, exErr)
			wctx, wcancel := context.WithTimeout(w.ctx, recoveryWait)
			_, werr := r.coord.AwaitEpoch(wctx, id, view.Epoch)
			wcancel()
			if werr != nil {
				return fmt.Errorf("train: worker %d iter %d: %w", id, iter, exErr)
			}
		}
		iter, pending, view, err = r.rendezvous(w, id, iter, pending, false)
		if err != nil {
			return err
		}
		recovered = true
	}

	// Natural completion. All members of the final committed exchange
	// arrive here in lockstep; the final checkpoint gathers under that
	// commit-time view so everyone makes the same gather-or-skip call.
	r.coord.Beat(id)
	if o.CheckpointDir != "" {
		if err := r.checkpoint(w, id, r.iters, w.sl.Cursor(), w.residual, view); err != nil {
			return err
		}
	}
	r.finish(w, id == view.Leader())
	// Leave the membership so a survivor still mid-recovery never blocks
	// on this exited worker: the departure advances the epoch, failing its
	// rendezvous, and it re-resolves against the shrunken view.
	r.coord.Depart(id)
	return nil
}

// rendezvous runs the recovery protocol after a membership change: all
// members meet at an epoch-scoped barrier, exchange their current
// iterations, and roll back to the minimum over the *established*
// members — the newest iteration every survivor can still replay. The
// barrier doubles as the guarantee that no member emits new-epoch
// traffic before everyone abandoned the old epoch, so the only foreign
// frames a replay can meet are stale ones, which the epoch-filtering
// peer discards.
//
// Joins ride the same barrier: a joining member contributes a marked
// item (excluded from the replay minimum — its checkpointed iteration
// may be arbitrarily stale), and the lowest established member ships it
// the exact pre-replay weights and optimizer state over the data plane
// before starting its own exchange. Per-link FIFO ordering makes the
// sync frame arrive ahead of any same-epoch ring traffic from that
// sender, and the epoch band keeps stale pre-crash frames out of the
// way, so the joiner splices in bit-exactly.
func (r *elasticRun) rendezvous(w *elasticWorker, id, iter int, pending, joining bool) (int, bool, elastic.View, error) {
	for {
		r.coord.Beat(id)
		cur := r.coord.View()
		if !cur.Contains(id) {
			return 0, false, cur, errWorkerDone
		}
		vals, err := r.coord.Gather(w.ctx, id, cur.Epoch, fmt.Sprintf("recover@%d", cur.Epoch),
			elastic.Item{Iter: int64(iter), Joining: joining})
		if errors.Is(err, elastic.ErrEpochChanged) {
			continue // another death while gathering: redo under the new view
		}
		if errors.Is(err, elastic.ErrEvicted) || errors.Is(err, elastic.ErrClosed) {
			// Evicted, or the coordinator closed under it: either way this
			// worker is out of the run, not the run's failure.
			return 0, false, cur, errWorkerDone
		}
		if err != nil {
			return 0, false, cur, fmt.Errorf("train: worker %d recovery rendezvous: %w", id, err)
		}
		replay, joiners, syncFrom, ok := splitRendezvous(vals)
		if !ok {
			if joining {
				// Every established member left (the run completed or
				// collapsed) before this joiner caught up: there is nothing to
				// splice into, and that is not the joiner's failure.
				return 0, false, cur, errWorkerDone
			}
			return 0, false, cur, fmt.Errorf("train: worker %d: rendezvous at epoch %d has no established member to recover from", id, cur.Epoch)
		}

		if joining {
			if err := r.joinSync(w, syncFrom, cur, replay); err != nil {
				if r.coord.View().Epoch != cur.Epoch {
					continue // the membership moved mid-sync: redo the rendezvous
				}
				return 0, false, cur, fmt.Errorf("train: worker %d join sync from %d: %w", id, syncFrom, err)
			}
			r.replays.Add(1)
			return replay, false, cur, nil
		}

		newIter, newPending := iter, pending
		switch {
		case replay < iter:
			// A survivor aborted mid-exchange of replay; everyone rolls back.
			rsp := r.o.Obs.Span(id, replay, obs.PhaseReplay)
			err := w.restoreSnapshot(replay)
			rsp.End()
			if err != nil {
				return 0, false, cur, err
			}
			r.replays.Add(1)
			newIter, newPending = replay, true
		case pending:
			// Common iteration, but this worker's gradient buffer is dirty
			// from the aborted exchange: restore the pristine snapshot.
			rsp := r.o.Obs.Span(id, iter, obs.PhaseReplay)
			err := w.restoreSnapshot(iter)
			rsp.End()
			if err != nil {
				return 0, false, cur, err
			}
			r.replays.Add(1)
			newPending = true
		default:
			// Nothing in flight (the event landed between exchanges).
			newPending = false
		}
		if len(joiners) > 0 && id == syncFrom {
			// State is now exactly pre-replay: ship it to every joiner before
			// engaging the ring (the joiner will not emit ring traffic until
			// it has applied this).
			if err := r.sendSync(w, joiners, cur); err != nil {
				if r.coord.View().Epoch != cur.Epoch {
					iter, pending = newIter, newPending
					continue // superseded mid-sync: the next epoch re-runs this
				}
				return 0, false, cur, fmt.Errorf("train: worker %d join sync send: %w", id, err)
			}
		}
		return newIter, newPending, cur, nil
	}
}

// splitRendezvous separates a rendezvous gather into the replay decision
// inputs: the minimum iteration over established (non-joining) members,
// the sorted joiner ids, and the sync source (the lowest established
// member — View.Leader may be a joiner, which cannot source state). ok
// is false when no established member is present.
func splitRendezvous(vals map[int]elastic.Item) (replay int, joiners []int, syncFrom int, ok bool) {
	syncFrom = -1
	for m, it := range vals {
		if it.Joining {
			joiners = append(joiners, m)
			continue
		}
		if syncFrom < 0 || int(it.Iter) < replay {
			replay = int(it.Iter)
		}
		if syncFrom < 0 || m < syncFrom {
			syncFrom = m
		}
	}
	sort.Ints(joiners)
	return replay, joiners, syncFrom, syncFrom >= 0
}

// sendSync ships this worker's current weights and optimizer state to
// each joiner over the data plane, tagged into the join epoch's band.
// ToS 0 keeps the payload on the raw (uncompressed) path: the joiner
// must receive these bits exactly.
func (r *elasticRun) sendSync(w *elasticWorker, joiners []int, cur elastic.View) error {
	payload := make([]float32, 0, 2*w.net.NumParams())
	payload = append(payload, w.net.Weights()...)
	payload = append(payload, w.velocity()...)
	sctx, scancel := context.WithCancel(w.ctx)
	defer scancel()
	stop := context.AfterFunc(r.coord.EpochContext(cur.Epoch), scancel)
	defer stop()
	tag := elastic.TagBase(cur.Epoch) + syncTagOffset
	for _, j := range joiners {
		if err := w.peer.SendCtx(sctx, j, payload, 0, tag); err != nil {
			return err
		}
	}
	return nil
}

// joinSync receives the sync source's state and fast-forwards this
// (joining) worker to the rendezvous iteration: synced weights and
// velocity, the loader seeked to the replay batch, a cleared residual
// (the joiner starts its error-feedback history fresh), and no retained
// snapshots — the checkpoint it booted from is now fully superseded.
func (r *elasticRun) joinSync(w *elasticWorker, from int, cur elastic.View, replay int) error {
	sctx, scancel := context.WithTimeout(w.ctx, recoveryWait)
	defer scancel()
	stop := context.AfterFunc(r.coord.EpochContext(cur.Epoch), scancel)
	defer stop()
	payload, err := w.peer.RecvCtx(sctx, from, elastic.TagBase(cur.Epoch)+syncTagOffset)
	if err != nil {
		return err
	}
	n := w.net.NumParams()
	if len(payload) != 2*n {
		return fmt.Errorf("train: join sync carried %d values, want %d", len(payload), 2*n)
	}
	if err := w.setState(payload[:n], payload[n:]); err != nil {
		return err
	}
	w.sl.Seek(uint64(replay))
	clear(w.residual)
	w.armSnapshots() // drops the retained ones
	return nil
}

// halt finishes a graceful stop at the agreed boundary: write the final
// checkpoint (NextIter = the halt iteration), leave the membership, and
// report ErrInterrupted.
func (r *elasticRun) halt(w *elasticWorker, id, iter int, pending bool, view elastic.View) error {
	if r.o.CheckpointDir != "" {
		residual := w.residual
		if pending {
			// The halt landed between this iteration's feedback fold and its
			// exchange: checkpoint the pre-fold residual so the resumed run
			// replays the fold itself.
			if s := w.snapFor(iter); s != nil {
				residual = s.residualPre
			}
		}
		if err := r.checkpoint(w, id, iter, uint64(iter), residual, view); err != nil {
			return err
		}
	}
	r.finish(w, false)
	r.coord.Depart(id)
	return ErrInterrupted
}

// checkpoint assembles one durable snapshot: every live member contributes
// its loader cursor and residual through an epoch-scoped gather, and the
// view's leader writes the file (weights and optimizer state are identical
// across members, so its own copies serve). view is the caller's
// commit-time view — NOT re-read here, so every member keys the gather by
// the same epoch and a concurrent eviction makes all of them skip (the
// post-recovery checkpoint supersedes) instead of splitting across two
// gathers that never fill.
func (r *elasticRun) checkpoint(w *elasticWorker, id, nextIter int, cursor uint64, residual []float32, view elastic.View) error {
	if !view.Contains(id) {
		return nil
	}
	contrib := elastic.Item{Iter: int64(nextIter), Cursor: cursor}
	if residual != nil {
		contrib.Residual = append([]float32(nil), residual...)
	}
	key := fmt.Sprintf("ckpt@e%d@i%d", view.Epoch, nextIter)
	vals, err := r.coord.Gather(w.ctx, id, view.Epoch, key, contrib)
	if err != nil {
		if errors.Is(err, elastic.ErrEpochChanged) || errors.Is(err, elastic.ErrEvicted) || errors.Is(err, elastic.ErrClosed) {
			return nil
		}
		return fmt.Errorf("train: worker %d checkpoint gather: %w", id, err)
	}
	if id != view.Leader() {
		return nil
	}
	ck := &Checkpoint{
		Universe:  r.o.Workers,
		Epoch:     view.Epoch,
		NextIter:  nextIter,
		Members:   view.Members,
		Weights:   w.net.Weights(), // views: WriteFile below is synchronous
		Velocity:  w.velocity(),
		Cursors:   make(map[int]uint64, len(vals)),
		Residuals: make(map[int][]float32, len(vals)),
	}
	for m, mc := range vals {
		ck.Cursors[m] = mc.Cursor
		if mc.Residual != nil {
			ck.Residuals[m] = mc.Residual
		}
	}
	wt := time.Now()
	csp := r.o.Obs.Span(id, nextIter, obs.PhaseCheckpoint)
	_, werr := ck.WriteFile(r.o.CheckpointDir)
	csp.End()
	r.ckptHist.Observe(time.Since(wt))
	if werr != nil {
		return werr
	}
	return GCCheckpoints(r.o.CheckpointDir, r.o.checkpointKeep())
}
