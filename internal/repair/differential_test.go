package repair_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/block"
	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/identity"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/pos"
	"repro/internal/repair"
)

// Differential test (DESIGN.md §11): the provider index maintained
// incrementally from engine OnAppend feeds must be bit-identical — same
// Snapshot() — to one rebuilt from scratch off the same chain, across
// fresh announcements, migrations/re-announcements, item expiry, suffix
// catch-up sync and fork adoption (both through AdoptSuffix).
// It also cross-checks provider sets against the engine's own StorageView,
// the consensus-side source of truth for live assignments.

// diffCluster is a minimal multi-engine harness over one virtual clock
// (the engine package's test harness is not exported).
type diffCluster struct {
	idents   []*identity.Identity
	accounts []identity.Address
	engines  []*engine.Engine
	now      time.Duration
	onItem   func(node int, ev engine.AppendEvent)
}

func newDiffCluster(t *testing.T, n int) *diffCluster {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	c := &diffCluster{
		idents:   make([]*identity.Identity, n),
		accounts: make([]identity.Address, n),
		engines:  make([]*engine.Engine, n),
	}
	for i := 0; i < n; i++ {
		c.idents[i] = identity.GenerateSeeded(rng)
		c.accounts[i] = c.idents[i].Address()
	}
	for i := 0; i < n; i++ {
		c.engines[i] = c.newEngine(t, i)
	}
	return c
}

func (c *diffCluster) newEngine(t *testing.T, i int) *engine.Engine {
	t.Helper()
	topo := netsim.NewTopology(make([]geo.Point, len(c.accounts)), 1, nil)
	blockPlanner := alloc.NewPlanner(1)
	blockPlanner.MinReplicas = 1
	e, err := engine.New(engine.Config{
		Accounts:           c.accounts,
		Self:               i,
		PoS:                pos.Params{M: pos.DefaultM, T0: 60 * time.Second},
		Genesis:            block.Genesis(42),
		Now:                func() time.Duration { return c.now },
		ValidateClaims:     true,
		Topology:           func() *netsim.Topology { return topo },
		Planner:            alloc.NewPlanner(1),
		BlockPlanner:       blockPlanner,
		StorageCapacity:    250,
		InitialRecentDepth: 1,
		MigrateMaxPerBlock: 2,
		OnAppend: func(ev engine.AppendEvent) {
			if c.onItem != nil {
				c.onItem(i, ev)
			}
		},
	})
	if err != nil {
		t.Fatalf("engine %d: %v", i, err)
	}
	return e
}

// mineNext plays one round across the given engines (all receive the block).
func (c *diffCluster) mineNext(t *testing.T, members []int) *block.Block {
	t.Helper()
	winner := -1
	var best engine.Round
	for _, i := range members {
		r, ok := c.engines[i].NextRound()
		if !ok {
			continue
		}
		if winner < 0 || r.FireAt() < best.FireAt() {
			winner, best = i, r
		}
	}
	if winner < 0 {
		t.Fatal("no engine can mine")
	}
	if best.FireAt() > c.now {
		c.now = best.FireAt()
	}
	res, err := c.engines[winner].Mine(best)
	if err != nil {
		t.Fatalf("engine %d mine: %v", winner, err)
	}
	if res == nil {
		t.Fatal("round moved on unexpectedly")
	}
	for _, i := range members {
		if i == winner {
			continue
		}
		if _, err := c.engines[i].ReceiveBlock(res.Block); err != nil {
			t.Fatalf("engine %d receive: %v", i, err)
		}
	}
	return res.Block
}

func (c *diffCluster) item(producer int, content string, validFor time.Duration) *meta.Item {
	it := &meta.Item{
		ID:           meta.HashData([]byte(content)),
		Type:         "Test/Diff",
		Produced:     c.now,
		ValidFor:     validFor,
		LocationName: "Lab",
		DataSize:     len(content),
	}
	it.Sign(c.idents[producer])
	return it
}

// checkDifferential asserts the three-way agreement at time now:
// incremental index == scratch rebuild of the chain, and provider sets ==
// the engine StorageView's live assignments.
func checkDifferential(t *testing.T, phase string, e *engine.Engine, inc *repair.Index, now time.Duration) {
	t.Helper()
	n := len(e.View().NodeStates(now)) // also forces the view's lazy expiry
	scratch := repair.NewIndex(n)
	scratch.Rebuild(e.Chain().Blocks())
	inc.ExpireUntil(now)
	scratch.ExpireUntil(now)
	if got, want := inc.Snapshot(), scratch.Snapshot(); got != want {
		t.Fatalf("%s: incremental index diverged from scratch rebuild\nincremental:\n%s\nrebuild:\n%s", phase, got, want)
	}
	for _, id := range inc.Live() {
		va := append([]int(nil), e.View().Assignment(id)...)
		sort.Ints(va)
		ia := inc.Providers(id)
		if fmt.Sprint(va) != fmt.Sprint(ia) {
			t.Fatalf("%s: item %s providers %v != storage-view assignment %v", phase, id, ia, va)
		}
	}
}

func TestIndexDifferentialAcrossForkSyncExpiry(t *testing.T) {
	const n = 4
	c := newDiffCluster(t, n)
	all := []int{0, 1, 2, 3}

	// Engine 0's index is maintained incrementally from its OnAppend feed,
	// exactly as the live node does.
	inc := repair.NewIndex(n)
	c.onItem = func(node int, ev engine.AppendEvent) {
		if node == 0 {
			for _, ie := range ev.Items {
				inc.Apply(ie.Item)
			}
		}
	}

	// Phase 1: fresh announcements, mixed lifetimes.
	for k := 0; k < 6; k++ {
		validFor := time.Duration(0)
		if k%2 == 0 {
			validFor = 150 * time.Second // expires mid-test
		}
		it := c.item(k%n, fmt.Sprintf("item-%d", k), validFor)
		for _, i := range all {
			c.engines[i].AddMetadata(it)
		}
	}
	for k := 0; k < 3; k++ {
		c.mineNext(t, all)
	}
	checkDifferential(t, "announce", c.engines[0], inc, c.now)

	// Phase 2: expiry. Advance past the short-lived items' valid time and
	// keep mining (migration re-announcements of expired items must be
	// ignored identically on both paths).
	c.now += 300 * time.Second
	c.mineNext(t, all)
	checkDifferential(t, "expiry", c.engines[0], inc, c.now)

	// Phase 3: suffix catch-up sync. A fresh engine replays the first part
	// of the chain block-by-block (incremental feed), then adopts the rest
	// via AdoptSuffix — which runs no OnAppend hooks, so the index is
	// extended with ApplyBlock, the way livenode's sync path does.
	chain := c.engines[0].Chain().Blocks()
	lateIdx := repair.NewIndex(n)
	late := c.newEngine(t, 1)
	split := len(chain) - 2
	for _, b := range chain[1:split] {
		if _, err := late.ReceiveBlock(b); err != nil {
			t.Fatalf("late replay: %v", err)
		}
		lateIdx.ApplyBlock(b)
	}
	if _, ok := late.AdoptSuffix(chain[split:]); !ok {
		t.Fatal("late engine rejected catch-up suffix")
	}
	for _, b := range chain[split:] {
		lateIdx.ApplyBlock(b)
	}
	checkDifferential(t, "suffix-sync", late, lateIdx, c.now)

	// Phase 4: fork adoption. A disjoint group mines a longer chain from
	// the same genesis; engine 0 adopts everything past the last shared
	// block (AdoptSuffix), which invalidates incremental state — the index
	// is rebuilt, and the result must match an index that followed the
	// winning chain incrementally.
	f := newDiffCluster(t, n)
	f.now = c.now
	fIdx := repair.NewIndex(n)
	f.onItem = func(node int, ev engine.AppendEvent) {
		if node == 0 {
			for _, ie := range ev.Items {
				fIdx.Apply(ie.Item)
			}
		}
	}
	it := f.item(0, "fork-item", 0)
	for _, i := range all {
		f.engines[i].AddMetadata(it)
	}
	for len(f.engines[0].Chain().Blocks()) <= len(c.engines[0].Chain().Blocks()) {
		f.mineNext(t, all)
	}
	c.now = f.now
	winner := f.engines[0].Chain().Blocks()
	fork := 0
	for fork+1 < len(winner) && c.engines[0].Chain().HasHash(winner[fork+1].Hash) {
		fork++
	}
	if _, ok := c.engines[0].AdoptSuffix(winner[fork+1:]); !ok {
		t.Fatal("engine 0 refused the longer fork")
	}
	if c.engines[0].Tip().Hash != f.engines[0].Tip().Hash {
		t.Fatal("engine 0 did not adopt the winner's tip")
	}
	inc.Rebuild(c.engines[0].Chain().Blocks())
	checkDifferential(t, "fork-adopt", c.engines[0], inc, c.now)
	if got, want := inc.Snapshot(), fIdx.Snapshot(); got != want {
		t.Fatalf("fork adoption rebuild diverged from the winner's incremental index\nrebuild:\n%s\nincremental:\n%s", got, want)
	}
}
