// Package elastic provides the membership and recovery layer that lets a
// distributed training run survive node failure: heartbeat-based failure
// detection over the fabric, epoch-numbered membership views, and the
// coordination primitives (epoch contexts, rendezvous gathers) survivors
// use to abort an in-flight step, agree on the shrunken ring, and replay
// the exchange from retained local state.
//
// The Coordinator is the agreement abstraction. In this in-process
// simulation it is a shared object; in a real deployment it stands in for
// a consensus or gossip service (etcd lease, SWIM, the job scheduler).
// Everything that must be *agreed* — who is alive, which epoch is
// current, the common replay iteration — flows through it, so the
// workers themselves never have to reconcile conflicting views.
//
// Failure evidence comes in three grades:
//
//   - Hard self-reports (ReportDead): a node whose transport returns a
//     crash error for its own operations declares itself dead, the way a
//     real process would by exiting and dropping its lease.
//   - Heartbeat staleness: workers Beat every iteration; a node silent
//     for longer than Config.SuspectAfter is declared dead by the
//     detector goroutine.
//   - Soft anomalies (ReportAnomaly and the LinkStats timeout scan):
//     retry exhaustion, torn frames, and receive-deadline
//     expiries observed *about* a peer. These are recorded for
//     observability and wake waiting survivors, but never evict a node
//     on their own — a straggler is not a corpse.
package elastic

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/obs"
)

// Errors returned by coordination primitives.
var (
	// ErrEpochChanged reports that the membership view advanced while the
	// caller was blocked in (or about to join) an epoch-scoped operation.
	// The caller should re-read the view and restart its protocol.
	ErrEpochChanged = errors.New("elastic: membership epoch changed")
	// ErrClosed reports that the coordinator has been shut down.
	ErrClosed = errors.New("elastic: coordinator closed")
	// ErrEvicted reports that the calling node is no longer a member of
	// the current view.
	ErrEvicted = errors.New("elastic: node evicted from membership")
)

// Item is the gather value the training loop exchanges through the
// coordinator — one shape covering both rendezvous (Iter, Joining) and
// checkpoint assembly (Cursor, Residual).
type Item struct {
	Iter     int64
	Joining  bool
	Cursor   uint64
	Residual []float32
}

// View is one epoch of the membership: the sorted fabric ids of the live
// nodes. Epoch 0 is the full initial membership; every eviction bumps the
// epoch by one. All survivors observe identical views (the coordinator is
// the single source of truth), which is what makes the rebuilt ring and
// the renormalized average deterministic across replicas.
type View struct {
	Epoch   int
	Members []int
}

// Contains reports whether id is a member of the view.
func (v View) Contains(id int) bool {
	for _, m := range v.Members {
		if m == id {
			return true
		}
	}
	return false
}

// Leader returns the lowest live id — the member that assumes designated
// duties (evaluation, checkpoint writing) for this epoch.
func (v View) Leader() int {
	if len(v.Members) == 0 {
		return -1
	}
	return v.Members[0]
}

// clone returns a deep copy so callers can hold views across lock drops.
func (v View) clone() View {
	return View{Epoch: v.Epoch, Members: append([]int(nil), v.Members...)}
}

// Anomaly is one soft-evidence observation about a node.
type Anomaly struct {
	Node int
	Time time.Time
	Err  error
}

// Config tunes failure detection.
type Config struct {
	// SuspectAfter declares a node dead when it has not Beat for this
	// long (after beating at least once). 0 disables the heartbeat
	// detector; deaths then come only from ReportDead.
	//
	// Coordination waits (Gather, AwaitEpoch) heartbeat automatically on
	// the caller's behalf, but compute phases and the ring exchange do
	// not: workers beat only at iteration boundaries while training.
	// SuspectAfter must therefore exceed the worst-case local-gradient +
	// exchange + evaluation latency of one iteration, or healthy members
	// are spuriously evicted.
	SuspectAfter time.Duration
	// ScanEvery is the detector's polling period. Defaults to
	// SuspectAfter/4 (minimum 1ms) when zero.
	ScanEvery time.Duration
	// Obs, if non-nil, records the membership layer's counters
	// (elastic_heartbeats, elastic_suspects, elastic_evictions,
	// elastic_departs) and the live elastic_epoch / elastic_members
	// gauges.
	Obs *obs.Recorder
}

// gather is one in-progress epoch-scoped all-to-all rendezvous.
type gather struct {
	epoch  int
	values map[int]Item
	done   chan struct{}
	err    error
}

// linkScan remembers the last observed per-link timeout counters so the
// detector can attribute *new* expiries between scans.
type linkScan struct {
	fabric *comm.Fabric
	last   [][]int64
}

// Coordinator tracks liveness for a fixed fabric universe of n nodes and
// publishes epoch-numbered membership views.
type Coordinator struct {
	mu       sync.Mutex
	universe int
	view     View
	dead     map[int]error // id -> evidence
	lastBeat []time.Time
	started  []bool // a node must beat once before staleness applies

	epochCtx    context.Context
	epochCancel context.CancelFunc
	changed     chan struct{} // closed and replaced on every view change
	gathers     map[string]*gather
	anomalies   []Anomaly
	closed      bool

	haltIter int // agreed graceful-stop iteration; -1 = none proposed

	cfg   Config
	scans []*linkScan
	stop  chan struct{}
	done  chan struct{}

	// Metric handles (nil-safe no-ops when cfg.Obs is nil).
	obsHeartbeats *obs.Counter
	obsSuspects   *obs.Counter
	obsEvictions  *obs.Counter
	obsDeparts    *obs.Counter
	obsJoins      *obs.Counter
	obsEpoch      *obs.Gauge
	obsMembers    *obs.Gauge
}

// NewCoordinator creates a coordinator over a universe of n nodes, all
// initially live (epoch 0). If cfg.SuspectAfter is positive a detector
// goroutine runs until Close.
func NewCoordinator(n int, cfg Config) *Coordinator {
	if n < 1 {
		panic("elastic: coordinator needs at least one node")
	}
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		universe:    n,
		haltIter:    -1,
		view:        View{Epoch: 0, Members: members},
		dead:        make(map[int]error),
		lastBeat:    make([]time.Time, n),
		started:     make([]bool, n),
		epochCtx:    ctx,
		epochCancel: cancel,
		changed:     make(chan struct{}),
		gathers:     make(map[string]*gather),
		cfg:         cfg,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),

		obsHeartbeats: cfg.Obs.Counter("elastic_heartbeats"),
		obsSuspects:   cfg.Obs.Counter("elastic_suspects"),
		obsEvictions:  cfg.Obs.Counter("elastic_evictions"),
		obsDeparts:    cfg.Obs.Counter("elastic_departs"),
		obsJoins:      cfg.Obs.Counter("elastic_joins"),
		obsEpoch:      cfg.Obs.Gauge("elastic_epoch"),
		obsMembers:    cfg.Obs.Gauge("elastic_members"),
	}
	c.obsEpoch.Set(0)
	c.obsMembers.Set(float64(n))
	if cfg.SuspectAfter > 0 {
		go c.detect(c.beatEvery())
	} else {
		close(c.done)
	}
	return c
}

// Close shuts the coordinator down: the detector stops, the current epoch
// context is cancelled, and pending gathers fail with ErrClosed.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	c.epochCancel()
	for k, g := range c.gathers {
		g.err = ErrClosed
		close(g.done)
		delete(c.gathers, k)
	}
	close(c.changed)
	c.changed = make(chan struct{})
	c.mu.Unlock()
	<-c.done
}

// View returns the current membership view.
func (c *Coordinator) View() View {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view.clone()
}

// EpochContext returns a context that is cancelled the moment the given
// epoch is superseded by a death (or the coordinator closes). Running a
// collective under it turns an eviction into immediate cancellation of
// the in-flight step on every survivor. A graceful departure (Depart)
// advances the epoch without cancelling: the departed worker owes no
// further traffic, so in-flight collectives of the superseded epoch can
// still complete. A stale epoch yields an already-cancelled context.
func (c *Coordinator) EpochContext(epoch int) context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed && c.view.Epoch == epoch {
		return c.epochCtx
	}
	return canceledCtx
}

var canceledCtx = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// beatEvery is the shared cadence for the detector's staleness scan and
// for the automatic heartbeats emitted while a member is blocked inside
// Gather or AwaitEpoch: ScanEvery, defaulting to SuspectAfter/4 with a
// 1ms floor. cfg is immutable after construction, so no lock is needed.
func (c *Coordinator) beatEvery() time.Duration {
	every := c.cfg.ScanEvery
	if every <= 0 {
		every = c.cfg.SuspectAfter / 4
		if every < time.Millisecond {
			every = time.Millisecond
		}
	}
	return every
}

// Beat records a liveness heartbeat from id. Workers call it at every
// iteration boundary and while waiting in recovery.
func (c *Coordinator) Beat(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id >= 0 && id < c.universe {
		c.lastBeat[id] = time.Now()
		c.started[id] = true
		c.obsHeartbeats.Add(1)
	}
}

// ReportDead declares id dead on hard evidence (a crash self-report, a
// dropped lease), advancing the membership epoch. Declaring an
// already-dead or unknown node is a no-op.
func (c *Coordinator) ReportDead(id int, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.declareDeadLocked(id, cause)
}

// declareDeadLocked performs the eviction under c.mu.
func (c *Coordinator) declareDeadLocked(id int, cause error) {
	if c.closed || !c.view.Contains(id) {
		return
	}
	if cause == nil {
		cause = errors.New("elastic: declared dead")
	}
	c.dead[id] = cause
	c.obsEvictions.Add(1)
	// A death dooms the superseded epoch's in-flight collectives — the
	// dead node will never send the frames they are waiting on — so cancel
	// the epoch context before publishing the new view.
	c.epochCancel()
	c.epochCtx, c.epochCancel = context.WithCancel(context.Background())
	c.removeLocked(id)
}

// Depart removes id from the membership on graceful completion: a worker
// that finished (or halted) its run leaves the view so the remaining
// members never block on it again. Like an eviction it advances the
// epoch and fails pending gathers with ErrEpochChanged — a survivor still
// mid-rendezvous re-resolves against the shrunken view instead of waiting
// forever on the exited worker. Unlike an eviction it records no death
// cause and does NOT cancel the superseded epoch's context: a departed
// worker has already fulfilled all its exchange obligations (its frames
// sit buffered in the fabric), so siblings' in-flight collectives can
// still run to completion. Departing an unknown or already-removed node
// is a no-op.
func (c *Coordinator) Depart(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || !c.view.Contains(id) {
		return
	}
	c.obsDeparts.Add(1)
	c.removeLocked(id)
}

// removeLocked drops id from the view and publishes the new epoch: the
// superseded epoch's pending gathers fail with ErrEpochChanged, so every
// remaining member restarts its barrier protocol under the new view.
// Cancelling the superseded epoch context is the caller's decision (death
// yes, departure no).
func (c *Coordinator) removeLocked(id int) {
	members := make([]int, 0, len(c.view.Members)-1)
	for _, m := range c.view.Members {
		if m != id {
			members = append(members, m)
		}
	}
	sort.Ints(members)
	c.view = View{Epoch: c.view.Epoch + 1, Members: members}
	c.obsEpoch.Set(float64(c.view.Epoch))
	c.obsMembers.Set(float64(len(members)))
	for k, g := range c.gathers {
		g.err = ErrEpochChanged
		close(g.done)
		delete(c.gathers, k)
	}
	close(c.changed)
	c.changed = make(chan struct{})
}

// Join re-admits (or admits) node id to the membership, the dual of the
// eviction path: the view grows by one member under an epoch bump. Any
// recorded death evidence for the node is cleared and its heartbeat state
// reset (it must beat once before staleness applies again, like at
// startup). Unlike a death, a join does NOT cancel the superseded epoch's
// context: every old member still owes its in-flight frames, so the old
// epoch's collectives can run to completion; the survivors pick up the
// joiner at their next rendezvous. Joining a current member is an
// idempotent no-op returning the current view. Because joins and
// evictions both mutate the view under c.mu, a join racing an eviction
// serializes through the epoch sequence — there is exactly one membership
// history, never two concurrent views.
func (c *Coordinator) Join(id int) (View, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return View{}, ErrClosed
	}
	if id < 0 || id >= c.universe {
		return View{}, fmt.Errorf("elastic: join of node %d outside universe %d", id, c.universe)
	}
	if c.view.Contains(id) {
		return c.view.clone(), nil
	}
	delete(c.dead, id)
	c.started[id] = false
	c.lastBeat[id] = time.Time{}
	c.obsJoins.Add(1)
	members := append(append([]int(nil), c.view.Members...), id)
	sort.Ints(members)
	c.view = View{Epoch: c.view.Epoch + 1, Members: members}
	c.obsEpoch.Set(float64(c.view.Epoch))
	c.obsMembers.Set(float64(len(members)))
	for k, g := range c.gathers {
		g.err = ErrEpochChanged
		close(g.done)
		delete(c.gathers, k)
	}
	close(c.changed)
	c.changed = make(chan struct{})
	return c.view.clone(), nil
}

// DeathCause returns the recorded evidence for a dead node (nil if live).
func (c *Coordinator) DeathCause(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead[id]
}

// ReportAnomaly records soft evidence about a node: a transport error, a
// straggling link. Anomalies never evict on their own but are kept for
// observability (and surface in test assertions).
func (c *Coordinator) ReportAnomaly(node int, err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.obsSuspects.Add(1)
	const keep = 64
	c.anomalies = append(c.anomalies, Anomaly{Node: node, Time: time.Now(), Err: err})
	if len(c.anomalies) > keep {
		c.anomalies = c.anomalies[len(c.anomalies)-keep:]
	}
}

// Anomalies returns a copy of the retained anomaly log.
func (c *Coordinator) Anomalies() []Anomaly {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Anomaly(nil), c.anomalies...)
}

// WatchFabric registers an in-process fabric's LinkStats with the
// detector: new receive-timeout expiries observed between scans are
// reported as anomalies against the link's source node (the peer being
// waited on). Requires a running detector (Config.SuspectAfter > 0).
func (c *Coordinator) WatchFabric(f *comm.Fabric) {
	n := f.N()
	last := make([][]int64, n)
	for i := range last {
		last[i] = make([]int64, n)
	}
	c.mu.Lock()
	c.scans = append(c.scans, &linkScan{fabric: f, last: last})
	c.mu.Unlock()
}

// detect is the failure-detector loop: heartbeat staleness evicts, link
// timeout growth raises anomalies.
func (c *Coordinator) detect(every time.Duration) {
	defer close(c.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		now := time.Now()
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		for _, id := range append([]int(nil), c.view.Members...) {
			if c.started[id] && now.Sub(c.lastBeat[id]) > c.cfg.SuspectAfter {
				c.declareDeadLocked(id, fmt.Errorf(
					"elastic: node %d heartbeat stale for %v (limit %v; process hang or crash suspected)",
					id, now.Sub(c.lastBeat[id]).Round(time.Millisecond), c.cfg.SuspectAfter))
			}
		}
		scans := c.scans
		c.mu.Unlock()
		for _, sc := range scans {
			n := sc.fabric.N()
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					cur := sc.fabric.Stats(src, dst).Timeouts.Load()
					if d := cur - sc.last[src][dst]; d > 0 {
						c.ReportAnomaly(src, fmt.Errorf(
							"elastic: %d new receive timeouts on link %d->%d", d, src, dst))
					}
					sc.last[src][dst] = cur
				}
			}
		}
	}
}

// ProposeHalt requests a graceful stop: the first proposer fixes the halt
// at its own iteration + 1 (set-once; later proposals are ignored) and
// every worker stops before exchanging any iteration ≥ the agreed value.
// Because workers can be at most one iteration apart (a ring exchange
// cannot complete without every member engaging), ownIter+1 is ≥ every
// worker's current iteration — nobody has already exchanged it, so all
// survivors halt at the same boundary with identical weights. Returns the
// agreed halt iteration.
func (c *Coordinator) ProposeHalt(ownIter int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.haltIter < 0 {
		c.haltIter = ownIter + 1
		close(c.changed)
		c.changed = make(chan struct{})
	}
	return c.haltIter
}

// HaltIter returns the agreed halt iteration, or -1 when no stop has been
// proposed.
func (c *Coordinator) HaltIter() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.haltIter
}

// AwaitEpoch blocks until the membership epoch exceeds after (returning
// the new view), the context is done, or the coordinator closes. It is
// how a survivor that aborted an exchange on soft evidence waits for the
// verdict: either someone is declared dead (view advances, recovery
// proceeds) or nobody is and the caller's deadline fires (the fault was
// not a membership event — escalate). id is the calling member, beaten
// periodically while it waits so the detector does not mistake the wait
// for death; an outside observer passes a negative id.
func (c *Coordinator) AwaitEpoch(ctx context.Context, id, after int) (View, error) {
	var beat <-chan time.Time
	if c.cfg.SuspectAfter > 0 && id >= 0 {
		t := time.NewTicker(c.beatEvery())
		defer t.Stop()
		beat = t.C
	}
	for {
		c.mu.Lock()
		if c.view.Epoch > after {
			v := c.view.clone()
			c.mu.Unlock()
			return v, nil
		}
		if c.closed {
			c.mu.Unlock()
			return View{}, ErrClosed
		}
		ch := c.changed
		c.mu.Unlock()
		select {
		case <-ch:
		case <-beat:
			c.Beat(id)
		case <-ctx.Done():
			return View{}, ctx.Err()
		}
	}
}

// Gather is the epoch-scoped rendezvous barrier: every member of the
// given epoch's view calls it with the same key and its own value; all
// callers block until the last member arrives, then all receive the full
// id→value map. If the epoch advances (another death) while any caller
// waits, every caller gets ErrEpochChanged and must restart under the
// new view. Keys are caller-scoped (include the epoch or iteration in
// the key); a completed gather's key is immediately reusable.
//
// Recovery uses it to agree on the common replay iteration (values are
// the survivors' current iterations; the minimum wins) while doubling as
// the barrier that guarantees no survivor emits new-epoch traffic before
// everyone abandoned the old epoch. Checkpointing uses it to assemble
// per-member state at the writer.
func (c *Coordinator) Gather(ctx context.Context, id, epoch int, key string, value Item) (map[int]Item, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.view.Epoch != epoch {
		c.mu.Unlock()
		return nil, ErrEpochChanged
	}
	if !c.view.Contains(id) {
		c.mu.Unlock()
		return nil, ErrEvicted
	}
	g := c.gathers[key]
	if g == nil {
		g = &gather{epoch: epoch, values: make(map[int]Item), done: make(chan struct{})}
		c.gathers[key] = g
	}
	g.values[id] = value
	if len(g.values) == len(c.view.Members) {
		delete(c.gathers, key)
		close(g.done)
	}
	c.mu.Unlock()

	// Keep beating while blocked at the barrier: a member waiting on a
	// straggling sibling must not look dead to the staleness detector.
	var beat <-chan time.Time
	if c.cfg.SuspectAfter > 0 {
		t := time.NewTicker(c.beatEvery())
		defer t.Stop()
		beat = t.C
	}
	for {
		select {
		case <-g.done:
			if g.err != nil {
				return nil, g.err
			}
			return g.values, nil
		case <-beat:
			c.Beat(id)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
