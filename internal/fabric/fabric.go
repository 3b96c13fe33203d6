package fabric

import (
	"context"
	"fmt"
	"sync"
	"time"

	"exysim/internal/core"
	"exysim/internal/experiments"
	"exysim/internal/obs"
	"exysim/internal/stats"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

// Config shapes a Coordinator. Zero values take the defaults noted on
// each field.
type Config struct {
	// LeaseTTL is how long a lease survives without a heartbeat from
	// its holder; an expired lease returns its shard to the queue for
	// another worker to steal. Default 10s.
	LeaseTTL time.Duration
	// StealAge is how long a lease may be held — with live heartbeats —
	// before an idle worker is granted a duplicate of the same shard
	// (first completion wins). This bounds sweep tail latency on a
	// slow-but-alive straggler. Default 6×LeaseTTL.
	StealAge time.Duration
	// EvictAfter is how long a worker may go silent before it is
	// dropped from the membership table. Default 3×LeaseTTL.
	EvictAfter time.Duration
	// Poll is the cadence workers are told to poll for leases at, and
	// the coordinator's own reap/fallback tick. Default 50ms.
	Poll time.Duration
	// ShardSlices caps the slice-range width of a planned shard.
	// Default 8.
	ShardSlices int
	// CacheShards caps the digest-keyed shard result cache, in
	// documents. Default 1024; negative disables the cache.
	CacheShards int
	// MaxShardErrors fails the sweep after one shard errors this many
	// times on distinct grants. Default 3.
	MaxShardErrors int
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.StealAge <= 0 {
		c.StealAge = 6 * c.LeaseTTL
	}
	if c.EvictAfter <= 0 {
		c.EvictAfter = 3 * c.LeaseTTL
	}
	if c.Poll <= 0 {
		c.Poll = 50 * time.Millisecond
	}
	if c.ShardSlices == 0 {
		c.ShardSlices = 8
	}
	if c.CacheShards == 0 {
		c.CacheShards = 1024
	}
	if c.CacheShards < 0 {
		c.CacheShards = 0
	}
	if c.MaxShardErrors <= 0 {
		c.MaxShardErrors = 3
	}
	return c
}

// RunFunc computes one shard. The serve layer supplies one backed by
// its simulator pool, warm cache, and trace store; exybench supplies
// per-worker variants. A non-empty job.Trace names the population whose
// slices replace the spec's synthetic suite; a RunFunc that cannot
// resolve it must return an error (the shard is retried elsewhere).
type RunFunc func(ctx context.Context, job ShardJob) (*experiments.ShardDoc, error)

// Stats is a point-in-time snapshot of coordinator counters, exported
// on the serving daemon's /metrics.
type Stats struct {
	WorkersJoined  uint64
	WorkersEvicted uint64
	WorkersLive    int

	SweepsSubmitted uint64
	ShardsPlanned   uint64
	ShardsCompleted uint64
	ShardErrors     uint64

	LeasesGranted      uint64
	LeasesExpired      uint64
	Steals             uint64
	CompletesDuplicate uint64
	LocalRuns          uint64

	CacheHits      uint64
	CacheMisses    uint64
	CacheEvictions uint64
	CacheEntries   int

	// ShardWall summarizes wall seconds per completed shard as reported
	// at Complete; WorkerWall is the merge of the cumulative summaries
	// the live workers carry on their heartbeats.
	ShardWall  stats.Summary
	WorkerWall stats.Summary
}

type workerState struct {
	id       string
	name     string
	lastSeen time.Time
	wall     stats.Summary
}

type lease struct {
	worker  string
	granted time.Time
}

type shardState uint8

const (
	shardPending shardState = iota
	shardLeased
	shardDone
)

type sweep struct {
	id    string
	spec  workload.SuiteSpec
	trace string // population content address; "" for synthetic sweeps
	gens  []core.GenConfig
	// gensWire is gens when the set differs from the default M1..M6 (it
	// must ride every grant), nil when workers can use their own default.
	gensWire []core.GenConfig
	shards   []experiments.Shard
	digests  []string
	docs     []*experiments.ShardDoc
	state    []shardState
	leases   [][]lease
	errs     []int
	// expired marks shards requeued because their lease aged out; the
	// next grant of such a shard counts as a steal.
	expired []bool

	remaining int
	done      chan struct{}
	err       error
	closed    bool

	onProgress func(done, total int)
}

// SubmitReq describes one sweep handed to Coordinator.Submit.
type SubmitReq struct {
	Spec workload.SuiteSpec
	// Gens defaults to core.Generations().
	Gens []core.GenConfig
	// Slices is the population the shards cover; the coordinator reads
	// only each slice's Name, Suite and Weight, to plan and merge. Nil
	// means Spec's synthetic suite, taken as header slices from
	// workload.Plan, so the coordinator never generates a suite it does
	// not simulate; a trace sweep passes its ingested slices.
	Slices []*trace.Slice
	// Trace names the ingested population Slices came from
	// (tracestore.PopulationID). It rides every Grant so workers resolve
	// the same slices, and it enters the shard digests so trace sweeps
	// and synthetic sweeps can never alias in the result cache.
	Trace string
	// OnProgress, if set, observes (completed, planned) shard counts.
	OnProgress func(done, total int)
	// Local computes shards on the coordinator itself whenever no live
	// worker exists — the liveness fallback that makes a fabric-routed
	// sweep at worst a single-process sweep.
	Local RunFunc
}

// Coordinator owns sweep planning, the lease table, the shared shard
// cache, and result merging. It implements Coord for in-process
// workers; serve's fabric endpoints adapt it to HTTP.
type Coordinator struct {
	cfg Config

	mu        sync.Mutex
	workers   map[string]*workerState
	sweeps    map[string]*sweep
	queue     []shardRef
	cache     *shardCache
	joinSeq   uint64
	sweepSeq  uint64
	localWall stats.Summary

	joined, evicted    uint64
	sweepsSubmitted    uint64
	shardsPlanned      uint64
	shardsCompleted    uint64
	shardErrors        uint64
	leasesGranted      uint64
	leasesExpired      uint64
	steals             uint64
	completesDuplicate uint64
	localRuns          uint64
}

type shardRef struct {
	sw  *sweep
	idx int
}

// localWorkerID marks leases held by a Submit pump's local fallback;
// they bypass heartbeat expiry because the fallback always completes.
const localWorkerID = "local"

// NewCoordinator creates a coordinator with cfg's policies.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	return &Coordinator{
		cfg:     cfg,
		workers: make(map[string]*workerState),
		sweeps:  make(map[string]*sweep),
		cache:   newShardCache(cfg.CacheShards),
	}
}

// Join implements Coord.
func (c *Coordinator) Join(req JoinRequest) (JoinDoc, error) {
	if req.GensetDigest != "" && req.GensetDigest != GensetDigest() {
		return JoinDoc{}, ErrVersionSkew
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.joinSeq++
	name := req.Name
	if name == "" {
		name = "worker"
	}
	id := fmt.Sprintf("%s#%d", name, c.joinSeq)
	c.workers[id] = &workerState{id: id, name: name, lastSeen: time.Now()}
	c.joined++
	return JoinDoc{
		WorkerID:       id,
		LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds(),
		PollMillis:     c.cfg.Poll.Milliseconds(),
	}, nil
}

// Lease implements Coord: pop the oldest pending shard, or duplicate a
// straggler's lease if the queue is empty and a shard has been leased
// longer than StealAge.
func (c *Coordinator) Lease(workerID string) (*Grant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	w := c.workers[workerID]
	if w == nil {
		return nil, ErrUnknownWorker
	}
	w.lastSeen = now
	c.reapLocked(now)

	// Queue first: drop stale refs (completed while requeued), grant
	// the first shard still pending.
	for len(c.queue) > 0 {
		ref := c.queue[0]
		c.queue = c.queue[1:]
		if ref.sw.closed || ref.sw.state[ref.idx] != shardPending {
			continue
		}
		return c.grantLocked(ref, w, now), nil
	}

	// Work stealing for stragglers: no queued work, so duplicate the
	// oldest sufficiently aged lease held by someone else.
	var oldest shardRef
	var oldestAt time.Time
	found := false
	for _, sw := range c.sweeps {
		if sw.closed {
			continue
		}
		for i, st := range sw.state {
			if st != shardLeased {
				continue
			}
			held := false
			for _, l := range sw.leases[i] {
				if l.worker == workerID {
					held = true
					break
				}
			}
			if held {
				continue
			}
			for _, l := range sw.leases[i] {
				if now.Sub(l.granted) >= c.cfg.StealAge && (!found || l.granted.Before(oldestAt)) {
					oldest, oldestAt, found = shardRef{sw, i}, l.granted, true
				}
			}
		}
	}
	if found {
		return c.grantLocked(oldest, w, now), nil
	}
	return nil, nil
}

// grantLocked records the lease and builds the Grant. A shard granted
// while other leases on it are outstanding — or that a different worker
// previously held — counts as stolen.
func (c *Coordinator) grantLocked(ref shardRef, w *workerState, now time.Time) *Grant {
	sw, i := ref.sw, ref.idx
	if len(sw.leases[i]) > 0 || sw.expired[i] {
		c.steals++
		sw.expired[i] = false
	}
	sw.state[i] = shardLeased
	sw.leases[i] = append(sw.leases[i], lease{worker: w.id, granted: now})
	c.leasesGranted++
	return &Grant{
		SweepID: sw.id,
		Shard:   i,
		Unit:    sw.shards[i],
		Digest:  sw.digests[i],
		Spec:    sw.spec,
		Trace:   sw.trace,
		Gens:    sw.gensWire,
	}
}

// Complete implements Coord. First completion wins; later duplicates
// (steal races, retried uploads) are acknowledged and dropped. Unknown
// workers may still complete — the result is valid regardless of
// membership, and the worker will learn it was evicted on its next
// Lease.
func (c *Coordinator) Complete(req CompleteRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	if w := c.workers[req.WorkerID]; w != nil {
		w.lastSeen = now
	}
	sw := c.sweeps[req.SweepID]
	if sw == nil || sw.closed {
		c.completesDuplicate++ // sweep already merged (or canceled) and forgotten
		return nil
	}
	if req.Shard < 0 || req.Shard >= len(sw.shards) {
		return fmt.Errorf("fabric: shard %d outside sweep %s's %d shards", req.Shard, req.SweepID, len(sw.shards))
	}
	if sw.state[req.Shard] == shardDone {
		c.completesDuplicate++
		return nil
	}
	c.dropLeasesLocked(sw, req.Shard, req.WorkerID)
	if req.Error != "" || req.Doc == nil {
		c.shardErrors++
		sw.errs[req.Shard]++
		if sw.errs[req.Shard] >= c.cfg.MaxShardErrors {
			c.failSweepLocked(sw, fmt.Errorf("fabric: shard %d failed %d times, last: %s", req.Shard, sw.errs[req.Shard], req.Error))
			return nil
		}
		if len(sw.leases[req.Shard]) == 0 {
			sw.state[req.Shard] = shardPending
			c.queue = append(c.queue, shardRef{sw, req.Shard})
		}
		return nil
	}
	if req.Doc.Digest != sw.digests[req.Shard] {
		return fmt.Errorf("fabric: shard %d digest %s does not match expected %s", req.Shard, req.Doc.Digest, sw.digests[req.Shard])
	}
	c.finishShardLocked(sw, req.Shard, req.Doc, req.WallSeconds)
	return nil
}

// dropLeasesLocked removes workerID's lease on shard i (all leases if
// workerID is empty).
func (c *Coordinator) dropLeasesLocked(sw *sweep, i int, workerID string) {
	kept := sw.leases[i][:0]
	for _, l := range sw.leases[i] {
		if workerID != "" && l.worker != workerID {
			kept = append(kept, l)
		}
	}
	sw.leases[i] = kept
}

// finishShardLocked records a completed document, feeds the cache and
// progress, and closes the sweep when it was the last shard.
func (c *Coordinator) finishShardLocked(sw *sweep, i int, doc *experiments.ShardDoc, wallSeconds float64) {
	sw.state[i] = shardDone
	sw.leases[i] = nil
	sw.docs[i] = doc
	sw.remaining--
	c.shardsCompleted++
	c.localWall.Add(wallSeconds)
	c.cache.put(sw.digests[i], doc)
	if sw.onProgress != nil {
		sw.onProgress(len(sw.shards)-sw.remaining, len(sw.shards))
	}
	if sw.remaining == 0 {
		close(sw.done)
	}
}

func (c *Coordinator) failSweepLocked(sw *sweep, err error) {
	if sw.closed {
		return
	}
	sw.err = err
	sw.closed = true
	close(sw.done)
}

// Heartbeat implements Coord.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[req.WorkerID]
	if w == nil {
		return ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	w.wall = req.ShardWall
	return nil
}

// Leave implements Coord: clean departure returns the worker's leases
// to the queue immediately.
func (c *Coordinator) Leave(req LeaveRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[req.WorkerID]
	if w == nil {
		return ErrUnknownWorker
	}
	delete(c.workers, req.WorkerID)
	c.releaseWorkerLocked(req.WorkerID)
	return nil
}

// releaseWorkerLocked drops every lease workerID holds, requeueing
// shards left leaseless.
func (c *Coordinator) releaseWorkerLocked(workerID string) {
	for _, sw := range c.sweeps {
		if sw.closed {
			continue
		}
		for i, st := range sw.state {
			if st != shardLeased {
				continue
			}
			had := len(sw.leases[i]) > 0
			c.dropLeasesLocked(sw, i, workerID)
			if had && len(sw.leases[i]) == 0 {
				sw.state[i] = shardPending
				c.queue = append(c.queue, shardRef{sw, i})
			}
		}
	}
}

// reapLocked lazily expires leases whose holders stopped heartbeating
// and evicts workers silent past EvictAfter. Called from Lease and the
// Submit tick, so a dead worker's shards return to the queue within one
// poll interval of its lease expiring.
func (c *Coordinator) reapLocked(now time.Time) {
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > c.cfg.EvictAfter {
			delete(c.workers, id)
			c.evicted++
		}
	}
	for _, sw := range c.sweeps {
		if sw.closed {
			continue
		}
		for i, st := range sw.state {
			if st != shardLeased {
				continue
			}
			kept := sw.leases[i][:0]
			for _, l := range sw.leases[i] {
				if l.worker == localWorkerID {
					// The local fallback always completes (with a result
					// or an error) — its lease cannot be orphaned.
					kept = append(kept, l)
					continue
				}
				w := c.workers[l.worker]
				if w == nil || now.Sub(w.lastSeen) > c.cfg.LeaseTTL {
					c.leasesExpired++
					continue
				}
				kept = append(kept, l)
			}
			sw.leases[i] = kept
			if len(kept) == 0 {
				sw.state[i] = shardPending
				sw.expired[i] = true
				c.queue = append(c.queue, shardRef{sw, i})
			}
		}
	}
}

// liveWorkersLocked counts workers heartbeating within one lease TTL.
func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	n := 0
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.cfg.LeaseTTL {
			n++
		}
	}
	return n
}

// LiveWorkers reports how many workers are currently heartbeating; the
// serve layer routes population jobs through the fabric only when this
// is nonzero.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveWorkersLocked(time.Now())
}

// Submit plans, distributes, and merges one sweep, blocking until every
// shard is complete (from cache, workers, or the local fallback) and
// returning a PopulationRun bit-identical to a single-process
// experiments.Run over the same spec.
func (c *Coordinator) Submit(ctx context.Context, req SubmitReq) (*experiments.PopulationRun, error) {
	spec := req.Spec.Normalize()
	gens := req.Gens
	var gensWire []core.GenConfig
	if gens == nil {
		gens = core.Generations()
	} else if obs.ConfigDigest(gens) != obs.ConfigDigest(core.Generations()) {
		// A custom generation set (e.g. M1..M6 plus a hypothetical M7)
		// must travel with every grant: the join handshake only vouches
		// that workers agree on the default set.
		gensWire = gens
	}
	slices := req.Slices
	if slices == nil {
		if req.Trace != "" {
			return nil, fmt.Errorf("fabric: sweep names trace population %s but carries no slices", req.Trace)
		}
		for _, ref := range workload.Plan(spec) {
			slices = append(slices, ref.Header())
		}
	}
	shards := experiments.PlanShards(len(gens), len(slices), c.cfg.ShardSlices)

	c.mu.Lock()
	c.sweepSeq++
	sw := &sweep{
		id:         fmt.Sprintf("sweep-%d", c.sweepSeq),
		spec:       spec,
		trace:      req.Trace,
		gens:       gens,
		gensWire:   gensWire,
		shards:     shards,
		digests:    make([]string, len(shards)),
		docs:       make([]*experiments.ShardDoc, len(shards)),
		state:      make([]shardState, len(shards)),
		leases:     make([][]lease, len(shards)),
		errs:       make([]int, len(shards)),
		expired:    make([]bool, len(shards)),
		remaining:  len(shards),
		done:       make(chan struct{}),
		onProgress: req.OnProgress,
	}
	c.sweepsSubmitted++
	c.shardsPlanned += uint64(len(shards))
	c.sweeps[sw.id] = sw
	for i, sh := range shards {
		sw.digests[i] = sh.TraceDigest(spec, gens[sh.Gen], req.Trace)
		if doc := c.cache.get(sw.digests[i]); doc != nil {
			c.finishShardLocked(sw, i, doc, 0)
		} else {
			c.queue = append(c.queue, shardRef{sw, i})
		}
	}
	done := sw.remaining == 0
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		sw.closed = true
		delete(c.sweeps, sw.id)
		c.mu.Unlock()
	}()

	if !done {
		if err := c.pump(ctx, sw, req.Local); err != nil {
			return nil, err
		}
	}
	p, err := experiments.MergeShards(spec, gens, slices, sw.docs)
	if err != nil {
		return nil, err
	}
	p.PopID = req.Trace
	return p, nil
}

// pump waits for the sweep, reaping leases each tick and running shards
// locally whenever the fabric has no live workers.
func (c *Coordinator) pump(ctx context.Context, sw *sweep, local RunFunc) error {
	tick := time.NewTicker(c.cfg.Poll)
	defer tick.Stop()
	for {
		select {
		case <-sw.done:
			return sw.err
		case <-ctx.Done():
			c.mu.Lock()
			c.failSweepLocked(sw, ctx.Err())
			c.mu.Unlock()
			return ctx.Err()
		case <-tick.C:
		}

		c.mu.Lock()
		now := time.Now()
		c.reapLocked(now)
		var ref *shardRef
		if local != nil && c.liveWorkersLocked(now) == 0 {
			// No fabric: claim this sweep's oldest pending shard and run
			// it on the coordinator so the sweep always makes progress.
			// Other sweeps' shards stay queued for their own pumps.
			kept := c.queue[:0]
			for _, head := range c.queue {
				if head.sw.closed || head.sw.state[head.idx] != shardPending {
					continue // stale ref
				}
				if head.sw != sw || ref != nil {
					kept = append(kept, head)
					continue
				}
				if head.sw.expired[head.idx] {
					// Reclaiming an expired lease is a steal even when
					// the thief is the coordinator itself.
					c.steals++
					head.sw.expired[head.idx] = false
				}
				head.sw.state[head.idx] = shardLeased
				head.sw.leases[head.idx] = append(head.sw.leases[head.idx], lease{worker: localWorkerID, granted: now})
				h := head
				ref = &h
			}
			c.queue = kept
		}
		c.mu.Unlock()

		if ref == nil {
			continue
		}
		c.runLocal(ctx, *ref, local)
	}
}

// runLocal computes one shard on the coordinator and feeds it through
// the same completion path workers use.
func (c *Coordinator) runLocal(ctx context.Context, ref shardRef, local RunFunc) {
	start := time.Now()
	doc, err := local(ctx, ShardJob{Spec: ref.sw.spec, Trace: ref.sw.trace, Unit: ref.sw.shards[ref.idx], Gens: ref.sw.gensWire})
	c.mu.Lock()
	c.localRuns++
	c.mu.Unlock()
	req := CompleteRequest{SweepID: ref.sw.id, Shard: ref.idx, WallSeconds: time.Since(start).Seconds(), Doc: doc}
	if err != nil {
		req.Doc, req.Error = nil, err.Error()
	}
	if cerr := c.Complete(req); cerr != nil {
		c.mu.Lock()
		c.failSweepLocked(ref.sw, cerr)
		c.mu.Unlock()
	}
}

// Stats snapshots the coordinator counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		WorkersJoined:      c.joined,
		WorkersEvicted:     c.evicted,
		WorkersLive:        c.liveWorkersLocked(time.Now()),
		SweepsSubmitted:    c.sweepsSubmitted,
		ShardsPlanned:      c.shardsPlanned,
		ShardsCompleted:    c.shardsCompleted,
		ShardErrors:        c.shardErrors,
		LeasesGranted:      c.leasesGranted,
		LeasesExpired:      c.leasesExpired,
		Steals:             c.steals,
		CompletesDuplicate: c.completesDuplicate,
		LocalRuns:          c.localRuns,
		CacheHits:          c.cache.hits,
		CacheMisses:        c.cache.misses,
		CacheEvictions:     c.cache.evictions,
		CacheEntries:       c.cache.len(),
		ShardWall:          c.localWall,
	}
	for _, w := range c.workers {
		s.WorkerWall.Merge(w.wall)
	}
	return s
}
