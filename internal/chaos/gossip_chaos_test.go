package chaos

import (
	"testing"
	"time"

	"repro/internal/p2p/memnet"
)

// measureBlockPropagation mines a 128-node cluster to a fixed height and
// returns each node's peak and summed livenode.wire.block_bytes — every
// FrameBlock, FrameBlockAnnounce and FrameGetBlock byte counted at its
// sender — plus the converged height for normalization.
func measureBlockPropagation(t *testing.T) (peak, total, height uint64) {
	t.Helper()
	const n, targetHeight = 128, 8
	c := newQuietCluster(t, Options{N: n, Seed: *seedFlag})
	reached := func() bool {
		for _, node := range c.Nodes() {
			if node.Height() < targetHeight {
				return false
			}
		}
		return true
	}
	if err := c.RunUntil(reached, 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	for i := 0; i < n; i++ {
		v := c.NodeTelemetry(i).Snapshot().Counter("livenode.wire.block_bytes")
		total += v
		if v > peak {
			peak = v
		}
	}
	return peak, total, c.Nodes()[0].Height()
}

// legacyBlockPushPeakPerBlock is the peak per-node block-propagation
// egress per adopted block that the retired full-mesh FrameBlock push
// spent on this gate's 128-node scenario: 17,455 B on seed 1 and
// 19,637 B on seeds 7 and 1337. The scenario is deterministic, so the
// baseline is a recorded constant; the smallest seed's value keeps every
// seed's gate at least as tight as the live comparison was.
const legacyBlockPushPeakPerBlock = 17_455

// TestGossipBeatsFullMeshFiveFold is the block-propagation wire-bytes
// gate (the sibling of TestSyncCatchupBeatsLegacyFiveFold): at 128 nodes,
// inv-style gossip must keep the PEAK per-node block-propagation egress
// per block at or below the recorded full-mesh baseline ÷ 5, i.e.
// 3,491 B. Peak — not total — is the honest metric: every node still
// receives each body exactly once, so cluster-total bytes cannot shrink
// much; what gossip removes is the miner's O(n) body fan-out, replacing
// it with O(fanout) 40-byte announces plus at most fanout served bodies.
func TestGossipBeatsFullMeshFiveFold(t *testing.T) {
	peak, total, height := measureBlockPropagation(t)
	if height == 0 {
		t.Fatal("cluster mined nothing")
	}
	rate := float64(peak) / float64(height)
	ceiling := float64(legacyBlockPushPeakPerBlock) / 5
	t.Logf("peak per-node block-propagation egress per block: gossip %.0f B (height %d), ceiling %.0f B (recorded full-mesh %d B / 5) — %.1fx; total %d B",
		rate, height, ceiling, legacyBlockPushPeakPerBlock, legacyBlockPushPeakPerBlock/rate, total)
	if rate > ceiling {
		t.Errorf("gossip peak egress %.0f B/block, ceiling %.0f B/block (recorded full-mesh %d B / 5)",
			rate, ceiling, legacyBlockPushPeakPerBlock)
	}
}

// gossipChaosResult fingerprints one 256-node gossip run for the
// double-run determinism comparison.
type gossipChaosResult struct {
	digest        uint64
	events        uint64
	height        uint64
	relays        uint64
	fetchesServed uint64
	dupSuppressed uint64
}

// runGossipConvergenceScenario drives the tentpole's flagship scenario:
// 256 nodes on lossy, laggy links relay blocks purely by announce/fetch
// gossip, suffer a half/half partition, heal, and must converge — with the
// fetch-timeout locator fallback patching whatever the drops eat.
func runGossipConvergenceScenario(t *testing.T, seed int64) gossipChaosResult {
	t.Helper()
	const n = 256
	c := newQuietCluster(t, Options{
		N:      n,
		Seed:   seed,
		Faults: memnet.Params{Drop: 0.05, DelayMax: 50 * time.Millisecond},
	})
	c.Run(45 * time.Second)

	left, right := make([]int, 0, n/2), make([]int, 0, n/2)
	for i := 0; i < n; i++ {
		if i < n/2 {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	c.Partition(left, right)
	c.Run(30 * time.Second)
	c.Heal()
	c.Net.SetDefaults(memnet.Params{})
	if err := c.Settle(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)

	res := gossipChaosResult{
		digest: c.Net.EventDigest(),
		events: c.Net.EventCount(),
		height: c.Nodes()[0].Height(),
	}
	for i := 0; i < n; i++ {
		snap := c.NodeTelemetry(i).Snapshot()
		res.relays += snap.Counter("livenode.gossip.relays")
		res.fetchesServed += snap.Counter("livenode.gossip.fetches_served")
		res.dupSuppressed += snap.Counter("livenode.gossip.dup_suppressed")
	}
	c.Close()
	return res
}

// TestChaosGossipConvergence256 is the tentpole's scale scenario: 256
// nodes converge through inv-style gossip under drops, delays and a
// partition, the gossip counters prove the announce/fetch path (not the
// legacy push) carried the blocks, and a second run with the same seed is
// bit-identical.
func TestChaosGossipConvergence256(t *testing.T) {
	first := runGossipConvergenceScenario(t, *seedFlag)

	if first.height < 4 {
		t.Fatalf("256-node gossip cluster barely mined: height %d", first.height)
	}
	if first.relays == 0 {
		t.Fatal("gossip.relays = 0 — blocks did not travel by announce relay")
	}
	if first.fetchesServed == 0 {
		t.Fatal("gossip.fetches_served = 0 — no peer fetched an announced body")
	}
	if first.dupSuppressed == 0 {
		t.Fatal("gossip.dup_suppressed = 0 — epidemic relay never crossed paths, implausible at 256 nodes")
	}

	second := runGossipConvergenceScenario(t, *seedFlag)
	if first != second {
		t.Fatalf("same seed produced different runs:\n run1: %+v\n run2: %+v", first, second)
	}
}
