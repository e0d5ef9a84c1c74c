package engine

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/chain"
	"repro/internal/pos"
)

// FuzzAdoptSuffix feeds AdoptSuffix mutated fork suffixes — truncated,
// reordered, duplicated-height and claim-forged chains, cut at a varying
// start height — and asserts the safety properties: the engine never
// panics, it adopts exactly when the referenceAdopt oracle does (reaching
// the same state), and it never adopts a chain that does not replay
// cleanly (structural validity plus PoS claim validity). The victim's own
// chain must stay fully valid after every attempt, adopted or refused.
//
// The victim holds its own 7-block branch with a ring snapshot at 4 and
// shares blocks 1–4 with the 9-block donor, so the unmutated suffix forks
// at the snapshot; starting the suffix lower moves the fork point below
// every ring snapshot, onto the genesis anchor.
func FuzzAdoptSuffix(f *testing.F) {
	f.Add([]byte{})           // unmutated suffix: must adopt
	f.Add([]byte{0, 3})       // truncate
	f.Add([]byte{1, 2, 2, 0}) // duplicate a height, swap adjacent
	f.Add([]byte{3, 1, 3, 9}) // stale-hash field tampering
	f.Add([]byte{4, 2, 4, 5}) // resealed forged claims
	f.Add([]byte{5, 7, 5, 1}) // forged-claim extensions
	f.Add([]byte{2, 0, 1, 6, 0, 255, 5, 42})
	f.Add([]byte{6, 1}) // start at height 2: fork below the ring snapshot

	c := newTestCluster(f, 3, nil)
	all := []int{0, 1, 2}
	for r := 0; r < 4; r++ {
		it := c.item(r%3, fmt.Sprintf("fuzz payload %d", r))
		for _, e := range c.engines {
			e.AddMetadata(it)
		}
		c.mineAmong(f, all)
	}
	for r := 0; r < 3; r++ {
		c.mineAmong(f, []int{2})
	}
	for r := 0; r < 5; r++ {
		c.mineAmong(f, []int{0, 1})
	}
	local := c.engines[2].Chain().Blocks()
	donor := c.engines[0].Chain().Blocks()
	c.now += 100000 * time.Second // keep both branches out of the future
	const fork = 4
	accounts := c.accounts

	// newVictim replays the local branch into a fresh engine that
	// snapshots every 4 blocks.
	newVictim := func(t *testing.T) *Engine {
		e := freshObserver(t, c)
		for _, b := range local[1:] {
			if _, err := e.ReceiveBlock(b); err != nil {
				t.Fatalf("victim replay: %v", err)
			}
		}
		return e
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		victim, twin := newVictim(t), newVictim(t)
		if got := victim.Snapshots(); len(got) != 1 || got[0] != fork {
			t.Fatalf("victim ring snapshots %v, want [%d]", got, fork)
		}

		blocks := append([]*block.Block(nil), donor...)
		start := fork + 1
		mutated := false
		for i := 0; i+1 < len(data) && len(blocks) > 0; i += 2 {
			op, arg := int(data[i])%7, int(data[i+1])
			switch op {
			case 0: // truncate
				k := 1 + arg%len(blocks)
				if k < len(blocks) {
					blocks, mutated = blocks[:k], true
				}
			case 1: // duplicate the block at one height
				k := arg % len(blocks)
				out := make([]*block.Block, 0, len(blocks)+1)
				out = append(out, blocks[:k+1]...)
				out = append(out, blocks[k])
				out = append(out, blocks[k+1:]...)
				blocks, mutated = out, true
			case 2: // swap two adjacent blocks
				if len(blocks) >= 2 {
					k := arg % (len(blocks) - 1)
					blocks[k], blocks[k+1] = blocks[k+1], blocks[k]
					mutated = true
				}
			case 3: // tamper a field without resealing (stale hash)
				k := arg % len(blocks)
				cp := blocks[k].Clone()
				switch arg % 4 {
				case 0:
					cp.MinedAfter++
				case 1:
					cp.B++
				case 2:
					cp.Timestamp += time.Second
				case 3:
					cp.PrevHash[0] ^= 0xff
				}
				blocks[k] = cp
				mutated = true
			case 4: // tamper and reseal: valid hash, forged PoS claim
				k := arg % len(blocks)
				cp := blocks[k].Clone()
				cp.MinedAfter += uint64(arg%5) + 1
				cp.Seal()
				blocks[k] = cp
				mutated = true
			case 5: // extend with a fabricated block claiming a bogus round
				prev := blocks[len(blocks)-1]
				nb := block.NewBuilder(prev, accounts[arg%len(accounts)],
					prev.Timestamp+time.Second, uint64(arg%100)+1, float64(arg)).Seal()
				blocks = append(blocks, nb)
				mutated = true
			case 6: // move the suffix start; past fork+1 it no longer links
				start = 1 + arg%len(blocks)
			}
		}
		if start > fork+1 {
			mutated = true
		}
		var suffix []*block.Block
		if start < len(blocks) {
			suffix = blocks[start:]
		}

		stats, adopted := victim.AdoptSuffix(suffix)

		if !mutated && !adopted {
			t.Fatalf("unmutated valid suffix from height %d refused", start)
		}
		if adopted {
			if stats.FullReplay != (stats.ForkPoint < fork) {
				t.Fatalf("FullReplay = %v at fork point %d (ring snapshot at %d)", stats.FullReplay, stats.ForkPoint, fork)
			}
			if victim.Height() != suffix[len(suffix)-1].Index {
				t.Fatalf("adopted height %d, suffix ends at %d", victim.Height(), suffix[len(suffix)-1].Index)
			}
			for _, b := range suffix {
				if victim.Chain().At(b.Index).Hash != b.Hash {
					t.Fatalf("adopted chain differs from suffix at height %d", b.Index)
				}
			}
		}
		// The oracle must reach the same decision on the full candidate.
		if len(suffix) > 0 && suffix[0].Index >= 1 && suffix[0].Index <= twin.Height()+1 {
			candidate := append(append([]*block.Block(nil), twin.Chain().Blocks()[:suffix[0].Index]...), suffix...)
			if got := referenceAdopt(twin, candidate); got != adopted {
				t.Fatalf("AdoptSuffix adopted=%v, reference replay adopted=%v", adopted, got)
			}
			assertEngineStateEqual(t, victim, twin)
		}
		// Whatever happened, the victim's chain must replay cleanly.
		snap := victim.Chain().Blocks()
		if err := chain.Validate(snap); err != nil {
			t.Fatalf("victim chain structurally invalid: %v", err)
		}
		scratch := pos.NewLedger(accounts)
		for i := 1; i < len(snap); i++ {
			if err := victim.cfg.PoS.ValidateClaim(snap[i-1], snap[i], scratch); err != nil {
				t.Fatalf("victim chain claim-invalid at height %d: %v", i, err)
			}
			if err := scratch.ApplyBlock(snap[i]); err != nil {
				t.Fatalf("victim ledger replay at height %d: %v", i, err)
			}
		}
		// And the live ledger must match that replay exactly.
		for k := range accounts {
			if victim.Ledger().S(k) != scratch.S(k) || victim.Ledger().Q(k) != scratch.Q(k) {
				t.Fatalf("victim ledger drifts from chain at account %d", k)
			}
		}
	})
}
