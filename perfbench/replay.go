package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/alloc"
	"repro/internal/block"
	"repro/internal/chain"
	"repro/internal/engine"
	"repro/internal/meta"
	"repro/internal/netsim"
)

// replayMin is how long each replay measurement repeats its ops before
// reporting a per-op figure.
const replayMin = 200 * time.Millisecond

// perOp repeats batch (which performs n ops) until replayMin has passed
// and returns the mean wall time and heap allocations per op. setup, if
// set, runs untimed before every batch.
func perOp(n int, setup, batch func() error) (time.Duration, float64, error) {
	var elapsed time.Duration
	var ops, allocs uint64
	var ms runtime.MemStats
	for elapsed < replayMin {
		if setup != nil {
			if err := setup(); err != nil {
				return 0, 0, err
			}
		}
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		if err := batch(); err != nil {
			return 0, 0, err
		}
		elapsed += time.Since(t0)
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - m0
		ops += uint64(n)
	}
	return elapsed / time.Duration(ops), float64(allocs) / float64(ops), nil
}

// replayEngine builds an engine configured as livenode configures its
// own (clique topology, UFL planners, snapshots every 32 blocks) for
// roster index self, with the clock pinned at *now.
func replayEngine(c *cluster, self int, now *time.Duration) (*engine.Engine, error) {
	topo := netsim.NewClique(len(c.accounts))
	blockPlanner := alloc.NewPlanner(1)
	blockPlanner.MinReplicas = 1
	return engine.New(engine.Config{
		Accounts:           c.accounts,
		Self:               self,
		PoS:                c.params,
		Genesis:            block.Genesis(genesisSeed),
		Now:                func() time.Duration { return *now },
		ValidateClaims:     true,
		Topology:           func() *netsim.Topology { return topo },
		Planner:            alloc.NewPlanner(1),
		BlockPlanner:       blockPlanner,
		StorageCapacity:    c.sp.storage,
		InitialRecentDepth: 1,
		SnapshotInterval:   32,
		VerifyWorkers:      4,
	})
}

func receiveAll(e *engine.Engine, blocks []*block.Block) error {
	for _, b := range blocks {
		if _, err := e.ReceiveBlock(b); err != nil {
			return fmt.Errorf("receive block %d: %w", b.Index, err)
		}
	}
	return nil
}

// replica returns a fresh engine for roster index 0 that has received
// blocks (genesis excluded).
func replica(c *cluster, now *time.Duration, blocks []*block.Block) (*engine.Engine, error) {
	e, err := replayEngine(c, 0, now)
	if err != nil {
		return nil, err
	}
	return e, receiveAll(e, blocks)
}

// replayStage times public functions of the codec, metadata, chain and
// engine packages on the traced run's own final chain and items, and on
// the heal fork when the workload has one.
func replayStage(c *cluster) ([]metric, error) {
	final := c.final
	blocks := final[1:]
	var items []*meta.Item
	for _, b := range blocks {
		items = append(items, b.Items...)
	}
	if len(blocks) == 0 || len(items) == 0 {
		return nil, fmt.Errorf("final chain has %d blocks and %d items", len(blocks), len(items))
	}
	now := final[len(final)-1].Timestamp + time.Hour
	var out []metric
	us := func(name string, d time.Duration) {
		out = append(out, metric{name: name, value: float64(d) / float64(time.Microsecond), unit: "us"})
	}
	msm := func(name string, d time.Duration) {
		out = append(out, metric{name: name, value: ms(d), unit: "ms"})
	}
	allocs := func(name string, a float64) {
		out = append(out, metric{name: name, value: a, unit: "count"})
	}

	enc := make([][]byte, len(blocks))
	for i, b := range blocks {
		enc[i] = b.Encode()
	}
	d, _, err := perOp(len(blocks), nil, func() error {
		for _, e := range enc {
			if _, err := block.Decode(e); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("block decode: %w", err)
	}
	us("block.decode.us", d)
	d, _, _ = perOp(len(blocks), nil, func() error {
		for _, b := range blocks {
			_ = b.Encode()
		}
		return nil
	})
	us("block.encode.us", d)
	d, _, err = perOp(len(items), nil, func() error {
		for _, it := range items {
			if err := it.Verify(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("meta verify: %w", err)
	}
	us("meta.verify.us", d)
	d, _, err = perOp(len(blocks), nil, func() error {
		for _, b := range blocks {
			if err := b.VerifySelf(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("block verify: %w", err)
	}
	us("block.verify_self.us", d)

	// Engine append path: a fresh replica receives the whole chain.
	var eng *engine.Engine
	d, a, err := perOp(len(blocks), func() (err error) {
		eng, err = replayEngine(c, 0, &now)
		return err
	}, func() error { return receiveAll(eng, blocks) })
	if err != nil {
		return nil, fmt.Errorf("engine receive: %w", err)
	}
	us("engine.receive_block.us", d)
	allocs("engine.receive_block.allocs", a)

	d, _, err = perOp(1, nil, func() error { return chain.Validate(final) })
	if err != nil {
		return nil, fmt.Errorf("chain validate: %w", err)
	}
	msm("chain.validate.ms", d)

	// adopt times one AdoptSuffix of suffix by a fresh replica of held.
	adopt := func(held, suffix []*block.Block) (time.Duration, error) {
		d, _, err := perOp(1, func() (err error) {
			eng, err = replica(c, &now, held[1:])
			return err
		}, func() error {
			if _, ok := eng.AdoptSuffix(suffix); !ok {
				return fmt.Errorf("suffix from height %d refused", suffix[0].Index)
			}
			return nil
		})
		return d, err
	}

	// Catch-up adoption: a replica holding the first half adopts the rest.
	half := len(final) / 2
	d, err = adopt(final[:half], final[half:])
	if err != nil {
		return nil, fmt.Errorf("catch-up adoption: %w", err)
	}
	msm("engine.adopt_suffix.catchup_ms", d)

	// Fork adoption (the heal fork): a replica of the partition side that
	// lost adopts the final chain past their fork point, up to one block
	// longer than that side — the first adoption its nodes could make, as
	// the longest-chain rule wants a strictly longer chain. Sides that
	// never left the final chain have no fork to adopt.
	d = 0
	if side, fork := losingSide(c.forkSides, final); side != nil && len(final) > len(side) {
		if d, err = adopt(side, final[fork+1:len(side)+1]); err != nil {
			return nil, fmt.Errorf("heal fork adoption: %w", err)
		}
	}
	msm("engine.adopt_suffix.fork_ms", d)

	// Mining: the tip's miner seals blocks of fresh items on top of the
	// final chain, UFL placement included.
	d, a, err = mineStage(c, final, &now)
	if err != nil {
		return nil, fmt.Errorf("mine: %w", err)
	}
	msm("engine.mine.ms", d)
	allocs("engine.mine.allocs", a)
	return out, nil
}

// losingSide returns the partition side with the most blocks off the
// final chain and the height of its last block on it, or nil when no side
// left the final chain.
func losingSide(sides [2][]*block.Block, final []*block.Block) ([]*block.Block, int) {
	var lost []*block.Block
	fork, off := 0, 0
	for _, side := range sides {
		f := 0
		for f+1 < len(side) && f+1 < len(final) && side[f+1].Hash == final[f+1].Hash {
			f++
		}
		if n := len(side) - 1 - f; n > off {
			lost, fork, off = side, f, n
		}
	}
	return lost, fork
}

// mineItems is how many fresh items each replayed Mine packs.
const mineItems = 8

func mineStage(c *cluster, final []*block.Block, now *time.Duration) (time.Duration, float64, error) {
	tip := final[len(final)-1]
	self := -1
	for i, a := range c.accounts {
		if a == tip.Miner {
			self = i
		}
	}
	if self < 0 {
		return 0, 0, fmt.Errorf("tip miner not on the roster")
	}
	*now = tip.Timestamp
	eng, err := replayEngine(c, self, now)
	if err != nil {
		return 0, 0, err
	}
	if err := receiveAll(eng, final[1:]); err != nil {
		return 0, 0, err
	}
	seq := 0
	var round engine.Round
	return perOp(1, func() error {
		for k := 0; k < mineItems; k++ {
			seq++
			content := []byte(fmt.Sprintf("replay item %d", seq))
			it := &meta.Item{ID: meta.HashData(content), Type: "replay", Produced: *now, DataSize: len(content)}
			it.Sign(c.idents[(seq*7)%len(c.idents)])
			eng.AddLocal(it)
		}
		var ok bool
		if round, ok = eng.NextRound(); !ok {
			return fmt.Errorf("the tip's miner cannot mine at height %d", eng.Height())
		}
		*now = round.FireAt()
		return nil
	}, func() error {
		res, err := eng.Mine(round)
		if err != nil {
			return err
		}
		if res == nil {
			return fmt.Errorf("round at height %d produced no block", eng.Height())
		}
		return nil
	})
}
