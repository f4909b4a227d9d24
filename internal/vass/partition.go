package vass

import (
	"sort"
	"sync"
	"sync/atomic"
)

// budgetPool is the shared memory-budget ledger for parallel
// exploration. The coordinator (or relaxed-mode merger) publishes the
// committed tree's estimated bytes into treeBytes; workers atomically
// charge the estimated bytes of speculative successor states they are
// holding (computed but not yet committed) into charged. Both sides can
// then answer "are we over the limit?" without sharing locks, so
// ErrMemBudget fires within one block of speculative work past the
// limit instead of only when the coordinator happens to commit.
type budgetPool struct {
	// limit is Options.MaxMemBytes (0 = unlimited).
	limit     int64
	treeBytes atomic.Int64
	charged   atomic.Int64
}

func (b *budgetPool) overLimit() bool {
	return b != nil && b.limit > 0 && b.treeBytes.Load()+b.charged.Load() >= b.limit
}

func (b *budgetPool) charge(v int64) { b.charged.Add(v) }

// stateBytesOf is the per-state component of the memory-accounting
// estimate (see Options.MaxMemBytes).
func (e *explorer) stateBytesOf(s State) int {
	if e.sized != nil {
		return e.sized.StateBytes(s)
	}
	return defaultStateBytes
}

// exchangeBuf bounds each cross-partition successor channel in relaxed
// mode. Small enough that a stalled round holds O(Workers·exchangeBuf)
// speculative states, large enough that expanders rarely block on a
// busy owner.
const exchangeBuf = 128

// exchItem is one successor crossing partitions in relaxed mode: the
// (frontier index, successor index) pair is its canonical commit rank,
// making the merge order independent of worker timing.
type exchItem struct {
	fi, si int
	s      State
	label  any
	// bytes is the speculative charge taken against the budget pool
	// when the item was produced; debited when it is dropped or merged.
	bytes int64
}

// exploreRelaxed is the relaxed partitioned-frontier exploration
// (Options.Relaxed). The open frontier is explored in rounds:
//
//   - The merger snapshots the active unexpanded frontier in commit
//     order and partitions it by Key(state) mod W.
//   - W expander goroutines compute Successors for their partition's
//     nodes concurrently — the expensive, pure part of the search — and
//     route each successor to the partition owning its key through
//     bounded exchange channels.
//   - W owner goroutines drain their exchange inbox. In classic
//     (non-pruning) mode an owner drops successors that exactly
//     duplicate a committed state: states that are Equal share a Key
//     and therefore an owner, so the partition-local filter is exactly
//     the global filter, for any W. In pruning mode dominance is
//     order-sensitive, so all filtering stays with the merger.
//     Survivors are forwarded to the merger's collector channel.
//   - Termination of a round is detected by quiescence counting: when
//     every expander has retired (all dispatched nodes expanded and
//     every produced successor handed to its owner), the exchange
//     channels close; when every owner has drained its closed inbox,
//     the collector closes; a closed collector means the round is
//     quiescent — no message can still be in flight.
//   - The merger then sorts the round's survivors by their canonical
//     (frontier index, successor index) rank and commits them through
//     the ordinary accelerate/prune/insert path.
//
// Because the tree is frozen while workers run and the merge order is
// canonical, the resulting tree, stats, and lassos are identical for
// every worker count W — relaxed mode trades byte-identity with the
// *sequential* (depth-first) exploration for round-level parallelism,
// not determinism. Budget aborts (ErrMemBudget, context expiry) can
// cut a round short and are as timing-dependent as wall-clock
// timeouts.
func exploreRelaxed(sys System, opts Options) (*Tree, error) {
	W := opts.Workers
	if W < 1 {
		W = 1
	}
	e := &explorer{sys: sys, opts: opts, tree: &Tree{}, byKey: map[uint64][]*Node{}}
	e.sized, _ = sys.(Sized)
	if opts.UseIndex && opts.Prune {
		e.idx = newClassIndex()
	}
	e.budget = &budgetPool{limit: opts.MaxMemBytes}

	stride := opts.ProgressStride
	if stride <= 0 {
		stride = DefaultProgressStride
	}
	nextEmit := stride
	exchangedTotal := 0
	peakQueue := 0
	var partDepths []int
	emitProgress := func(frontier int) {
		p := Progress{
			Created:         e.tree.Created,
			Frontier:        frontier,
			Pruned:          e.tree.Pruned,
			Skipped:         e.tree.Skipped,
			Accelerations:   e.tree.Accelerations,
			Workers:         W,
			Exchanged:       exchangedTotal,
			ExchangeQueue:   peakQueue,
			PartitionDepths: partDepths,
		}
		p.MemBytes = e.memTotal()
		opts.OnProgress(p)
	}

	var frontier []*Node
	finish := func(err error) (*Tree, error) {
		e.tree.Stopped = e.stop
		if opts.OnProgress != nil {
			emitProgress(len(frontier))
		}
		return e.tree, err
	}

	for _, s := range sys.Initial() {
		n := e.newNode(s, nil, nil)
		if n == nil {
			continue
		}
		if e.stop {
			return finish(nil)
		}
		frontier = append(frontier, n)
	}

	for {
		// Snapshot this round's work: frontier nodes still active
		// (later commits of the previous round may have pruned earlier
		// ones — the sequential loop drops those the same way).
		var round []*Node
		for _, n := range frontier {
			if n.Active && !n.processed {
				n.processed = true
				round = append(round, n)
			}
		}
		if len(round) == 0 {
			return finish(nil)
		}
		if opts.MaxStates > 0 && e.tree.Created > opts.MaxStates {
			return finish(ErrBudget)
		}
		if opts.MaxMemBytes > 0 && e.memTotal() > opts.MaxMemBytes {
			return finish(ErrMemBudget)
		}
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return finish(err)
			}
		}

		// Partition the round by state-key ownership.
		owned := make([][]int, W)
		for i, n := range round {
			w := int(sys.Key(n.S) % uint64(W))
			owned[w] = append(owned[w], i)
		}
		partDepths = make([]int, W)
		for w := range owned {
			partDepths[w] = len(owned[w])
		}

		exch := make([]chan exchItem, W)
		for i := range exch {
			exch[i] = make(chan exchItem, exchangeBuf)
		}
		coll := make(chan exchItem, exchangeBuf)
		stopCh := make(chan struct{})
		var stopOnce sync.Once
		stopRound := func() { stopOnce.Do(func() { close(stopCh) }) }

		var exchanged, ownerDropped atomic.Int64
		var expWg, ownWg sync.WaitGroup

		expWg.Add(W)
		for w := 0; w < W; w++ {
			go func(w int) {
				defer expWg.Done()
				for _, fi := range owned[w] {
					if e.budget.overLimit() {
						// Stop speculating; the merger sees the charged
						// pool cross the limit and aborts the round.
						return
					}
					select {
					case <-stopCh:
						return
					default:
					}
					n := round[fi]
					for si, sc := range sys.Successors(n.S) {
						bytes := int64(nodeOverheadBytes + e.stateBytesOf(sc.S))
						e.budget.charge(bytes)
						v := int(sys.Key(sc.S) % uint64(W))
						select {
						case exch[v] <- exchItem{fi: fi, si: si, s: sc.S, label: sc.Label, bytes: bytes}:
						case <-stopCh:
							return
						}
					}
				}
			}(w)
		}
		go func() {
			expWg.Wait()
			for _, ch := range exch {
				close(ch)
			}
		}()

		ownWg.Add(W)
		for w := 0; w < W; w++ {
			go func(w int) {
				defer ownWg.Done()
				for {
					var it exchItem
					var ok bool
					select {
					case it, ok = <-exch[w]:
						if !ok {
							return
						}
					case <-stopCh:
						return
					}
					exchanged.Add(1)
					if !opts.Prune {
						// Partition-local exact-duplicate filter against
						// the frozen committed tree. byHash buckets are
						// key-disjoint across owners, so the concurrent
						// reads (and any lazy hash memoization inside
						// Equal) never collide.
						key := sys.Key(it.s)
						dup := false
						for _, m := range e.byKey[key] {
							if sys.Equal(m.S, it.s) {
								dup = true
								break
							}
						}
						if dup {
							ownerDropped.Add(1)
							e.budget.charge(-it.bytes)
							continue
						}
					}
					select {
					case coll <- it:
					case <-stopCh:
						return
					}
				}
			}(w)
		}
		go func() {
			ownWg.Wait()
			close(coll)
		}()

		// Collect until quiescent. The merger must keep draining after a
		// cancellation or budget abort so blocked workers always find
		// either a stopCh signal or room in their channel — otherwise a
		// full exchange pipeline would deadlock the shutdown.
		var buf []exchItem
		var roundErr error
		var done <-chan struct{}
		if opts.Ctx != nil {
			done = opts.Ctx.Done()
		}
	drain:
		for {
			select {
			case it, ok := <-coll:
				if !ok {
					break drain
				}
				buf = append(buf, it)
				if q := len(coll); q > peakQueue {
					peakQueue = q
				}
				if roundErr == nil && e.budget.overLimit() {
					roundErr = ErrMemBudget
					stopRound()
				}
			case <-done:
				roundErr = opts.Ctx.Err()
				done = nil
				stopRound()
			}
		}
		exchangedTotal += int(exchanged.Load())
		e.tree.Skipped += int(ownerDropped.Load())
		if roundErr != nil {
			// All workers have exited (the collector only closes once
			// both stages are quiescent); the partial round is dropped.
			return finish(roundErr)
		}

		// Canonical merge: commit in (frontier index, successor index)
		// order, which no worker schedule can perturb.
		sort.Slice(buf, func(i, j int) bool {
			if buf[i].fi != buf[j].fi {
				return buf[i].fi < buf[j].fi
			}
			return buf[i].si < buf[j].si
		})
		next := frontier[:0]
		for _, it := range buf {
			e.budget.charge(-it.bytes)
			n := round[it.fi]
			// Reynier-Servais drops (node, transition) pairs whose
			// source was deactivated — possibly by an earlier commit of
			// this same round.
			if opts.Prune && !n.Active {
				continue
			}
			s := it.s
			if opts.Accelerate {
				s = e.accelerate(n, s)
				if e.stop {
					return finish(nil)
				}
			}
			child := e.newNode(s, it.label, n)
			if child == nil {
				continue
			}
			if e.stop {
				return finish(nil)
			}
			next = append(next, child)
			if opts.MaxStates > 0 && e.tree.Created > opts.MaxStates {
				frontier = next
				return finish(ErrBudget)
			}
			if opts.MaxMemBytes > 0 && e.memTotal() > opts.MaxMemBytes {
				frontier = next
				return finish(ErrMemBudget)
			}
			if opts.OnProgress != nil && e.tree.Created >= nextEmit {
				emitProgress(len(next))
				nextEmit = e.tree.Created + stride
			}
		}
		frontier = next
	}
}
