package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/meta"
	"repro/internal/pos"
)

// Fork adoption (DESIGN.md §10). AdoptSuffix is the engine's one
// fork-adoption path: it adopts only the blocks past the fork point,
// starting from the newest state it holds at or below that point — the
// live state when the suffix simply extends the tip, else a periodic
// snapshot, else the permanent replay anchor — and re-applying its own
// blocks from there. Blocks at or below the fork point are never
// re-verified.
//
// The anchor is the bootstrap snapshot on a snapshot-bootstrapped engine
// and genesis state otherwise. Genesis state is a pure function of Config,
// so it is rebuilt on demand rather than held: a held copy would cost
// every node a roster-sized ledger and view for state that takes
// microseconds to rebuild.

// snapshotKeep is how many periodic snapshots the engine retains. Two
// snapshots guarantee that any fork point within one full
// SnapshotInterval of the tip is covered even right after a boundary.
const snapshotKeep = 2

// snapshot is the engine's chain-derived state frozen at one height.
type snapshot struct {
	height    uint64
	hash      block.Hash
	ledger    *pos.Ledger
	view      *StorageView
	inChain   map[meta.DataID]bool
	liveItems map[meta.DataID]*meta.Item
}

// clone returns an independent copy of s, so replaying blocks on the copy
// leaves s untouched. Items are immutable and shared.
func (s snapshot) clone() snapshot {
	cp := snapshot{
		height:    s.height,
		hash:      s.hash,
		ledger:    s.ledger.Clone(),
		view:      s.view.Clone(),
		inChain:   make(map[meta.DataID]bool, len(s.inChain)),
		liveItems: make(map[meta.DataID]*meta.Item, len(s.liveItems)),
	}
	for id := range s.inChain {
		cp.inChain[id] = true
	}
	for id, it := range s.liveItems {
		cp.liveItems[id] = it
	}
	return cp
}

// apply folds one block's state transitions into s.
func (s *snapshot) apply(b *block.Block) error {
	if err := s.ledger.ApplyBlock(b); err != nil {
		return err
	}
	s.view.ApplyBlock(b)
	for _, it := range b.Items {
		s.inChain[it.ID] = true
		s.liveItems[it.ID] = it
	}
	return nil
}

// liveState returns the engine's current state as a snapshot that aliases
// the live structures (clone it before mutating).
func (e *Engine) liveState() snapshot {
	return snapshot{
		height:    e.ch.Height(),
		hash:      e.ch.Tip().Hash,
		ledger:    e.ledger,
		view:      e.view,
		inChain:   e.inChain,
		liveItems: e.liveItems,
	}
}

// genesisState builds the chain-derived state at height 0 from Config.
func (e *Engine) genesisState() snapshot {
	ledger := pos.NewLedger(e.cfg.Accounts)
	ledger.RescaleEvery = e.cfg.StakeRescaleEvery
	return snapshot{
		hash:      e.cfg.Genesis.Hash,
		ledger:    ledger,
		view:      NewStorageView(len(e.cfg.Accounts), e.cfg.StorageCapacity, e.cfg.MobilityRange, e.cfg.InitialRecentDepth, e.cfg.RecentDepthCap),
		inChain:   make(map[meta.DataID]bool),
		liveItems: make(map[meta.DataID]*meta.Item),
	}
}

// SuffixStats reports what an AdoptSuffix call did, for telemetry: how
// much state was replayed, where the replay started, and how much of the
// batch the verify pool handled.
type SuffixStats struct {
	// ForkPoint is the height of the common ancestor the suffix extends.
	ForkPoint uint64
	// Appended counts suffix blocks validated and applied.
	Appended int
	// Replayed counts this node's own blocks re-applied between the
	// replay base and the fork point to reconstruct fork-point state.
	Replayed int
	// FullReplay reports that no periodic snapshot covered the fork point,
	// so the replay started at the permanent anchor (genesis, or the
	// bootstrap snapshot). The replay applies state only: no signature or
	// claim below the fork point is re-checked.
	FullReplay bool
	// ParallelVerified counts blocks content-verified by the worker pool
	// (0 when the pool ran sequentially).
	ParallelVerified int
}

// maybeSnapshot freezes the engine's state every SnapshotInterval blocks
// (called from postAppend, after the block's transitions applied).
func (e *Engine) maybeSnapshot(height uint64) {
	k := uint64(e.cfg.SnapshotInterval)
	if k == 0 || height == 0 || height%k != 0 {
		return
	}
	e.snaps = append(e.snaps, e.liveState().clone())
	if len(e.snaps) > snapshotKeep {
		e.snaps = e.snaps[len(e.snaps)-snapshotKeep:]
	}
	e.maybePrune()
}

// pruneSnapshots drops snapshots that are no longer on this chain (their
// height was rewritten by a fork adoption). Spine headers are enough:
// snapshot heights may lie below the body window.
func (e *Engine) pruneSnapshots() {
	kept := e.snaps[:0]
	for _, s := range e.snaps {
		if hdr, ok := e.ch.HeaderAt(s.height); ok && hdr.Hash == s.hash {
			kept = append(kept, s)
		}
	}
	for i := len(kept); i < len(e.snaps); i++ {
		e.snaps[i] = snapshot{} // release clones
	}
	e.snaps = kept
}

// bestSnapshot returns the newest retained snapshot at or below height
// that is still on this chain.
func (e *Engine) bestSnapshot(height uint64) (snapshot, bool) {
	for i := len(e.snaps) - 1; i >= 0; i-- {
		s := e.snaps[i]
		if s.height > height {
			continue
		}
		if hdr, ok := e.ch.HeaderAt(s.height); !ok || hdr.Hash != s.hash {
			continue
		}
		return s, true
	}
	return snapshot{}, false
}

// Snapshots returns the heights of the currently retained snapshots
// (ascending). Exposed for tests and diagnostics.
func (e *Engine) Snapshots() []uint64 {
	out := make([]uint64, 0, len(e.snaps))
	for _, s := range e.snaps {
		out = append(out, s.height)
	}
	return out
}

// verifyContent runs VerifySelf (hash integrity + metadata signatures)
// over every block, fanning out across Config.VerifyWorkers goroutines.
// The result is deterministic regardless of worker count and scheduling:
// when several blocks fail, the lowest-index failure is returned. The
// returned count is how many blocks the parallel pool verified (0 when it
// ran sequentially).
func (e *Engine) verifyContent(blocks []*block.Block) (int, error) {
	workers := e.cfg.VerifyWorkers
	if workers > len(blocks) {
		workers = len(blocks)
	}
	if workers <= 1 {
		for i, b := range blocks {
			if err := b.VerifySelf(); err != nil {
				return 0, fmt.Errorf("engine: suffix block %d: %w", i, err)
			}
		}
		return 0, nil
	}
	errs := make([]error, len(blocks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(blocks) {
					return
				}
				errs[i] = blocks[i].VerifySelf()
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return len(blocks), fmt.Errorf("engine: suffix block %d: %w", i, err)
		}
	}
	return len(blocks), nil
}

// AdoptSuffix evaluates a candidate chain suffix whose first block links
// to a block this engine already holds (the fork point). This is
// Naivechain-style fork resolution: the combined chain must be strictly
// longer than the current one and must not rewrite history at or below
// the newest checkpoint. Block content is verified by the bounded worker
// pool, and PoS claims (when enabled) are replayed sequentially against
// the ledger state reconstructed at the fork point.
//
// State reconstruction replays only this node's own blocks between the
// replay base and the fork point (see the file comment), applying their
// state transitions without re-verifying them. For the common reconnect
// case (suffix extends the tip) nothing is replayed at all. A fork below
// a bootstrap anchor, or one whose replay would need pruned bodies, is
// refused: this replica cannot reconstruct the state at its fork point.
//
// AdoptSuffix runs no OnAppend callbacks and does not check block
// timestamps against Now; on success all chain-derived state is swapped
// atomically and true is returned. On any rejection the engine is left
// exactly as it was.
func (e *Engine) AdoptSuffix(suffix []*block.Block) (SuffixStats, bool) {
	var st SuffixStats
	forkPoint, err := e.ch.CheckSuffixLinks(suffix)
	if err != nil {
		return st, false
	}
	st.ForkPoint = forkPoint
	// Checkpoint rule (Section V-D): refuse to rewrite finalized history.
	if cp := e.LastCheckpoint(); cp > 0 && forkPoint < cp {
		return st, false
	}

	var base snapshot
	owned := false // base is already a private copy
	if forkPoint == e.ch.Height() {
		base = e.liveState() // pure catch-up: the live state is the fork-point state
	} else if s, ok := e.bestSnapshot(forkPoint); ok {
		base = s
	} else {
		st.FullReplay = true
		if base = e.anchor; base.ledger == nil {
			base, owned = e.genesisState(), true
		}
	}
	// The replay needs our bodies (base.height, forkPoint] and the
	// fork-point block; the body window is contiguous, so checking both
	// ends suffices.
	if base.height > forkPoint || e.ch.At(forkPoint) == nil ||
		base.height < forkPoint && e.ch.At(base.height+1) == nil {
		return st, false
	}
	st.ParallelVerified, err = e.verifyContent(suffix)
	if err != nil {
		return st, false
	}

	// Work on a copy so a claim failure mid-suffix leaves the engine
	// untouched. Our own blocks were validated when first adopted, so only
	// their state transitions run.
	work := base
	if !owned {
		work = base.clone()
	}
	for h := base.height + 1; h <= forkPoint; h++ {
		if err := work.apply(e.ch.At(h)); err != nil {
			panic(fmt.Sprintf("engine: replay of own block %d: %v", h, err))
		}
		st.Replayed++
	}

	// Validate and apply the suffix on the reconstructed state.
	prev := e.ch.At(forkPoint)
	for _, b := range suffix {
		if e.cfg.ValidateClaims {
			if err := e.cfg.PoS.ValidateClaim(prev, b, work.ledger); err != nil {
				return st, false
			}
		}
		if err := work.apply(b); err != nil {
			return st, false
		}
		prev = b
		st.Appended++
	}

	// Commit: swap the chain tail and all derived state atomically.
	if err := e.ch.ReplaceSuffix(forkPoint, suffix); err != nil {
		// Cannot happen: CheckSuffixLinks vetted the same suffix above.
		panic("engine: suffix replace after validation: " + err.Error())
	}
	e.ledger = work.ledger
	e.view = work.view
	e.inChain = work.inChain
	e.liveItems = work.liveItems
	for _, b := range suffix {
		for _, it := range b.Items {
			delete(e.pool, it.ID)
		}
	}
	e.pruneSnapshots()
	e.maybePrune()
	return st, true
}
