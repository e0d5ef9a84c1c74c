package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/block"
	"repro/internal/chaos"
	"repro/internal/meta"
	"repro/internal/p2p/memnet"
	"repro/internal/workload"
)

// spec is one benchmark workload: the cluster, its links, the open-loop
// stream and the fault schedule. Every random choice derives from the
// seed passed to stream and faults.
type spec struct {
	name    string
	why     string
	n       int
	links   memnet.Params
	storage int  // per-node storage capacity in items
	disk    bool // store.Open with SyncAlways instead of in-memory stores
	repair  bool // self-healing data plane with sampled liveness probes

	stream func(seed int64) workload.StreamConfig
	items  int              // arrivals per run: the stream's first items, spread over its Duration
	settle time.Duration    // fixed window after the last fetch came due
	faults func(c *cluster) // arms the fault schedule at stream start

	// An untraced invocation runs one repetition per repWall of its
	// budget (at least one) and takes setUps set-up samples in all.
	repWall time.Duration
	setUps  int
}

func requestersEvery(n, first, step int) []int {
	var out []int
	for i := first; i < n; i += step {
		out = append(out, i)
	}
	return out
}

// Settings every workload shares.
const (
	t0           = 5 * time.Second  // expected block interval
	requestDelay = 15 * time.Second // publish → requester fetch
	retryEvery   = 30 * time.Second // an unanswered fetch is re-issued this often
	convergeMax  = 10 * time.Minute // bound on the wait for chain convergence
)

var specs = []*spec{
	{
		// The ROADMAP yardstick: BenchmarkScalingCurve/n=1000/rate=30 on
		// the paper's fixed 10 ms per-hop link delay.
		name:    "scale1000",
		why:     "1000 nodes on fixed 10 ms links, the ROADMAP yardstick stream: per-node fan-out (peer sorting, ed25519, adoption replay) dominates",
		n:       1000,
		links:   memnet.Params{DelayMin: 10 * time.Millisecond, DelayMax: 10 * time.Millisecond},
		storage: 96,
		stream: func(seed int64) workload.StreamConfig {
			return workload.StreamConfig{
				Duration:        time.Minute,
				RatePerMin:      30,
				NumNodes:        1000,
				Requesters:      requestersEvery(1000, 1, 1000/8),
				RequestsPerItem: 2,
				TypeZipfS:       1.1,
				Users:           1_000_000,
				UserZipfS:       1.2,
				SessionEpoch:    45 * time.Second,
				Seed:            seed*10_000 + 1,
			}
		},
		items:   30,
		settle:  10 * time.Second,
		repWall: 35 * time.Second,
		setUps:  2,
	},
	{
		name:    "items256",
		why:     "256 nodes on jittered links, 120 items in a minute, repair on: item signature checks and fork replays dominate, peer sorting does not",
		n:       256,
		links:   memnet.Params{DelayMin: 10 * time.Millisecond, DelayMax: 40 * time.Millisecond},
		storage: 96,
		repair:  true,
		stream: func(seed int64) workload.StreamConfig {
			return workload.StreamConfig{
				Duration:        time.Minute,
				RatePerMin:      120,
				NumNodes:        256,
				Requesters:      requestersEvery(256, 3, 10),
				RequestsPerItem: 2,
				TypeZipfS:       1.1,
				Users:           1_000_000,
				UserZipfS:       1.2,
				SessionEpoch:    45 * time.Second,
				Seed:            seed*10_000 + 2,
			}
		},
		items:   120,
		settle:  30 * time.Second,
		repWall: 20 * time.Second,
		setUps:  5,
	},
	{
		name:    "partition-heal",
		why:     "128 durable nodes (SyncAlways WAL), lossy jittered links, half/half partition, heal, then crash and WAL restart: fork adoption replaces chains and writes disk",
		n:       128,
		links:   memnet.Params{DelayMin: 10 * time.Millisecond, DelayMax: 40 * time.Millisecond, Drop: 0.01, Reorder: 0.05},
		storage: 64,
		disk:    true,
		stream: func(seed int64) workload.StreamConfig {
			return workload.StreamConfig{
				Duration:        4 * time.Minute,
				RatePerMin:      12,
				NumNodes:        128,
				Requesters:      requestersEvery(128, 3, 10),
				RequestsPerItem: 2,
				TypeZipfS:       1.1,
				Users:           1_000_000,
				UserZipfS:       1.2,
				SessionEpoch:    45 * time.Second,
				Seed:            seed*10_000 + 3,
			}
		},
		items:   48,
		settle:  30 * time.Second,
		faults:  partitionHeal,
		repWall: 5 * time.Second,
		setUps:  5,
	},
}

func findSpec(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Partition-heal schedule, relative to stream start.
const (
	partitionAt = 20 * time.Second
	healAt      = 140 * time.Second
	crashAt     = 170 * time.Second
	crashDown   = 30 * time.Second
	crashCount  = 4
)

// partitionHeal splits the cluster in half long enough for both sides to
// fork past the engine's retained snapshots, heals, then crashes four
// nodes and restarts them from their WAL.
func partitionHeal(c *cluster) {
	half := c.sp.n / 2
	c.at(partitionAt, func() {
		c.prefix = chaos.CommonPrefix(c.live())
		var lo, hi []string
		for i := 0; i < c.sp.n; i++ {
			if i < half {
				lo = append(lo, addr(i))
			} else {
				hi = append(hi, addr(i))
			}
		}
		c.net.Partition(lo, hi)
	})
	c.at(healAt, func() {
		c.forkSides = [2][]*block.Block{c.nodes[0].ChainSnapshot(), c.nodes[half].ChainSnapshot()}
		c.net.Heal()
	})
	// Victims: seed-chosen non-requesters, two per side.
	requester := make(map[int]bool)
	for _, r := range c.sp.stream(c.seed).Requesters {
		requester[r] = true
	}
	rng := rand.New(rand.NewSource(c.seed*31 + 7))
	for len(c.crashed) < crashCount {
		side := len(c.crashed) % 2
		v := side*half + rng.Intn(half)
		if requester[v] || contains(c.crashed, v) {
			continue
		}
		c.crashed = append(c.crashed, v)
	}
	c.at(crashAt, func() {
		for _, v := range c.crashed {
			c.faultErr(c.crash(v))
		}
	})
	c.at(crashAt+crashDown, func() {
		for _, v := range c.crashed {
			if err := c.restart(v); err != nil {
				c.faultErr(err)
				continue
			}
			c.restarted++
		}
	})
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// at arms fn at offset d after stream start, on the shared clock.
func (c *cluster) at(d time.Duration, fn func()) {
	due := c.streamStart + d - c.vnow()
	c.clock.AfterFunc(due, fn)
}

// faultErr keeps the first error a scheduled fault hit.
func (c *cluster) faultErr(err error) {
	if err != nil && c.schedErr == nil {
		c.schedErr = err
	}
}

// startStream arms the open-loop arrivals: each event fires on the
// virtual clock exactly when it is due, so generator lateness is 0 by
// construction.
func (c *cluster) startStream() error {
	// A run publishes exactly sp.items items: the stream's first arrivals,
	// their times scaled so the last falls at the configured Duration —
	// Poisson arrivals conditioned on their count, so the amount of work
	// does not swing with the seed's arrival count. A dry pass over an
	// identical stream finds the scale.
	cfg := c.sp.stream(c.seed)
	window := cfg.Duration
	cfg.Duration = 4 * window
	dry, err := workload.NewStream(cfg)
	if err != nil {
		return err
	}
	var last time.Duration
	for k := 0; k < c.sp.items; k++ {
		ev, ok := dry.Next()
		if !ok {
			return fmt.Errorf("stream ran dry after %d of %d arrivals", k, c.sp.items)
		}
		last = ev.At
	}
	c.timeScale = float64(window) / float64(last)
	s, err := workload.NewStream(cfg)
	if err != nil {
		return err
	}
	c.stream = s
	c.streamStart = c.vnow()
	s.SetAlive(func(node int) bool { return c.nodes[node] != nil })
	if c.sp.faults != nil {
		c.sp.faults(c)
	}
	c.scheduleNext()
	return nil
}

func (c *cluster) scheduleNext() {
	if c.issued == c.sp.items {
		c.streamDone = true
		return
	}
	c.tr.begin(c.ids.next)
	ev, ok := c.stream.Next()
	c.tr.end()
	if !ok {
		c.streamDone = true
		return
	}
	c.issued++
	due := c.streamStart + time.Duration(float64(ev.At)*c.timeScale) - c.vnow()
	c.clock.AfterFunc(due, func() {
		c.tr.begin(c.ids.fire)
		c.fire(ev)
		c.tr.end()
	})
}

func (c *cluster) fire(ev workload.Event) {
	defer c.scheduleNext()
	now := c.vnow()
	node := c.nodes[ev.Producer]
	if node == nil {
		c.ops.rejected(now)
		return
	}
	content := make([]byte, 64)
	copy(content, fmt.Sprintf("bench item seq=%08d user=%d", c.stream.Seq(), ev.User))
	c.tr.begin(c.ids.publish)
	it, err := node.Publish(content, ev.Type, "")
	c.tr.end()
	if err != nil {
		c.ops.rejected(now)
		return
	}
	c.ops.published(it.ID, now)
	for _, r := range ev.Requesters {
		r, id := r, it.ID
		c.clock.AfterFunc(requestDelay, func() { c.fetch(r, id) })
	}
	c.lastFetchDue = now + requestDelay
}

// fetch issues (or re-issues) requester r's fetch of id. A client whose
// fetch went unanswered asks again every retryEvery; a requester that is
// down asks once it is back.
func (c *cluster) fetch(r int, id meta.DataID) {
	first := c.ops.requested(r, id, c.vnow())
	if !first && !c.ops.pending(r, id) {
		return
	}
	if n := c.nodes[r]; n != nil {
		if n.HasData(id) {
			// Held before the fetch came due (an arrival since would
			// have answered it through OnData).
			c.ops.localHit(r, id)
			return
		}
		c.tr.begin(c.ids.request)
		n.RequestData(id)
		c.tr.end()
	}
	c.clock.AfterFunc(retryEvery, func() {
		if c.ops.pending(r, id) && !c.finished {
			c.fetch(r, id)
		}
	})
}
