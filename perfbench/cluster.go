package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/block"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/identity"
	"repro/internal/livenode"
	"repro/internal/meta"
	"repro/internal/p2p"
	"repro/internal/p2p/memnet"
	"repro/internal/pos"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// genesisSeed is the genesis every benchmark cluster shares (the chaos
// harness default).
const genesisSeed = chaos.GenesisSeed

// clusterSeed draws every workload's roster keys and link faults.
const clusterSeed = 1

// cluster is N live nodes on one memnet network and one chaos.VClock,
// wired by the benchmark itself so it can time the seams the chaos
// harness keeps private: each node's p2p.Handler, p2p.Transport,
// livenode.Clock and core.Store pass through the wrappers below. All
// methods run on one goroutine.
type cluster struct {
	sp      *spec
	seed    int64  // draws the workload stream and the crash victims
	dataDir string // "" = in-memory stores
	epoch   time.Time
	clock   *chaos.VClock
	net     *memnet.Network
	params  pos.Params

	idents   []*identity.Identity
	accounts []identity.Address
	nodes    []*livenode.Node // nil while crashed
	regs     []*telemetry.Registry

	tr  *tracer // nil for an untraced run
	ids spanIDs

	probe *speedProbe // samples machine speed while a timed phase steps

	// Adoption log: each node's last observed tip, and the virtual time
	// each block hash first appeared on its chain.
	tips    []*block.Block
	adopted []map[block.Hash]time.Duration

	// Workload bookkeeping.
	stream      *workload.Stream
	streamStart time.Duration
	streamDone  bool
	timeScale   float64 // stream time → virtual time since stream start
	issued      int     // arrivals taken from the stream
	ops         opLog
	// lastFetchDue is when the last scheduled fetch comes due; finished
	// stops client retries at run end.
	lastFetchDue time.Duration
	finished     bool
	schedErr     error // first error a scheduled fault hit

	final []*block.Block // converged chain at run end

	// Partition-heal captures.
	prefix    []block.Hash      // common prefix just before the partition
	forkSides [2][]*block.Block // one chain per side, just before the heal
	crashed   []int             // nodes crashed by the schedule
	restarted int               // restarts completed
}

func newCluster(sp *spec, seed int64, dataDir string, tr *tracer) (*cluster, error) {
	epoch := time.Unix(1700000000, 0)
	c := &cluster{
		sp:      sp,
		seed:    seed,
		dataDir: dataDir,
		epoch:   epoch,
		clock:   chaos.NewVClock(epoch),
		params:  pos.Params{M: pos.DefaultM, T0: t0},
		tr:      tr,
		tips:    make([]*block.Block, sp.n),
		adopted: make([]map[block.Hash]time.Duration, sp.n),
		nodes:   make([]*livenode.Node, sp.n),
		regs:    make([]*telemetry.Registry, sp.n),
	}
	c.ops.fetches = make(map[fetchKey]*fetchRec)
	if tr != nil {
		c.ids = tr.resolve()
	}
	// The cluster itself — roster keys and the link-fault RNG — is the
	// same for every seed (the BenchmarkScalingCurve cluster, seed 1);
	// the seed draws the traffic.
	c.net = memnet.New(clusterSeed, c.clock.Now)
	c.net.SetDefaults(sp.links)
	c.net.SetRecording(false)
	rng := rand.New(rand.NewSource(clusterSeed))
	c.idents = make([]*identity.Identity, sp.n)
	c.accounts = make([]identity.Address, sp.n)
	for i := range c.idents {
		c.idents[i] = identity.GenerateSeeded(rng)
		c.accounts[i] = c.idents[i].Address()
		c.adopted[i] = make(map[block.Hash]time.Duration)
		c.regs[i] = telemetry.NewRegistry()
	}
	for i := range c.nodes {
		if err := c.startNode(i); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// addr is node i's memnet address. Zero-padded, so sorted addresses are
// in roster order: with the chaos harness's node%02d names (node10 <
// node100 < node101) the scale1000 cluster falls into the fragmentation
// described in NOTES.md.
func addr(i int) string { return fmt.Sprintf("node%04d", i) }

func (c *cluster) vnow() time.Duration { return c.clock.Now().Sub(c.epoch) }

func (c *cluster) startNode(i int) error {
	var st core.Store
	if c.dataDir != "" {
		s, err := store.Open(filepath.Join(c.dataDir, fmt.Sprintf("n%04d", i)), store.Options{
			Sync:    store.SyncAlways,
			Metrics: store.NewMetrics(c.regs[i]),
		})
		if err != nil {
			return fmt.Errorf("open store %d: %w", i, err)
		}
		st = s
	}
	if c.tr != nil {
		if st == nil {
			st = core.NewMemStore()
		}
		st = &tracedStore{Store: st, tr: c.tr, ids: &c.ids}
	}
	cfg := livenode.Config{
		Identity:        c.idents[i],
		Accounts:        c.accounts,
		PoS:             c.params,
		GenesisSeed:     genesisSeed,
		Epoch:           c.epoch,
		Clock:           nodeClock{VClock: c.clock, c: c, i: i},
		Store:           st,
		StorageCapacity: c.sp.storage,
		Telemetry:       c.regs[i],
		OnData:          func(id meta.DataID, _ []byte) { c.ops.answered(i, id, c.vnow()) },
		NewTransport: func(h p2p.Handler) (p2p.Transport, error) {
			ep, err := c.net.Listen(addr(i), &nodeHandler{h: h, c: c, i: i})
			if err != nil || c.tr == nil {
				return ep, err
			}
			return &tracedTransport{Transport: ep, tr: c.tr, ids: &c.ids}, nil
		},
	}
	if c.sp.repair {
		// As the 128-node flash-crowd chaos test: sampled probes spread
		// liveness over a few ticks, so the dead window spans many.
		cfg.RepairWorkers = 2
		cfg.RepairProbeEvery = 5 * time.Second
		cfg.RepairSuspectAfter = 30 * time.Second
		cfg.RepairHysteresis = 30 * time.Second
	}
	node, err := livenode.New(cfg)
	if err != nil {
		return fmt.Errorf("start node %d: %w", i, err)
	}
	c.nodes[i] = node
	c.observe(i)
	return nil
}

// connectAll links every node pair, each node dialling its higher-indexed
// peers in one batched Connect (as the chaos harness does).
func (c *cluster) connectAll() error {
	c.tr.begin(c.ids.connect)
	defer c.tr.end()
	addrs := make([]string, 0, len(c.nodes))
	for i, n := range c.nodes {
		addrs = addrs[:0]
		for j := i + 1; j < len(c.nodes); j++ {
			addrs = append(addrs, addr(j))
		}
		if len(addrs) == 0 {
			continue
		}
		if err := n.Connect(addrs...); err != nil {
			return err
		}
	}
	return nil
}

func (c *cluster) live() []*livenode.Node {
	out := make([]*livenode.Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n != nil {
			out = append(out, n)
		}
	}
	return out
}

func (c *cluster) crash(i int) error {
	n := c.nodes[i]
	c.nodes[i] = nil
	return n.Kill()
}

// restart brings a crashed node back from its store and reconnects it to
// every live peer.
func (c *cluster) restart(i int) error {
	c.tr.begin(c.ids.restart)
	defer c.tr.end()
	if err := c.startNode(i); err != nil {
		return err
	}
	addrs := make([]string, 0, len(c.nodes))
	for j, n := range c.nodes {
		if j != i && n != nil {
			addrs = append(addrs, addr(j))
		}
	}
	return c.nodes[i].Connect(addrs...)
}

func (c *cluster) close() {
	for i, n := range c.nodes {
		if n != nil {
			_ = n.Close()
			c.nodes[i] = nil
		}
	}
}

// observe records the blocks that became part of node i's chain since
// its last observed tip, stamped with the current virtual time. It runs
// after every frame and timer the node handles, so each block's first
// appearance is the virtual instant it was adopted. (livenode's OnBlock
// hook fires on a fresh goroutine, so the clock it would read is not
// deterministic.)
func (c *cluster) observe(i int) {
	n := c.nodes[i]
	if n == nil {
		return
	}
	tip := n.Tip()
	if tip == c.tips[i] {
		return
	}
	c.tips[i] = tip
	now := c.vnow()
	seen := c.adopted[i]
	for h := tip.Index; h >= 1; h-- {
		hash, ok := n.BlockHashAt(h)
		if !ok {
			break
		}
		if _, ok := seen[hash]; ok {
			break // the seen set is closed under ancestors
		}
		seen[hash] = now
	}
}

// step executes the earliest due happening — a timer, or a network
// message due strictly before every timer — and reports false when
// nothing is due at or before horizon.
func (c *cluster) step(horizon time.Time) bool {
	c.probe.tick()
	msgAt, msgOK := c.net.NextDue()
	timerAt, timerOK := c.clock.NextTimer()
	if c.tr != nil {
		if p := c.net.Pending(); p > c.tr.queuePeak {
			c.tr.queuePeak = p
		}
	}
	switch {
	case !msgOK && !timerOK:
		return false
	case msgOK && (!timerOK || msgAt.Before(timerAt)):
		if msgAt.After(horizon) {
			return false
		}
		c.clock.AdvanceTo(msgAt) // no timer is due by msgAt: only moves now
		c.tr.begin(c.ids.deliver)
		c.net.DeliverNext()
		c.tr.end()
	default:
		if timerAt.After(horizon) {
			return false
		}
		c.tr.begin(c.ids.advance)
		c.clock.AdvanceTo(timerAt)
		c.tr.end()
	}
	return true
}

// run advances the cluster by d of virtual time.
func (c *cluster) run(d time.Duration) {
	horizon := c.clock.Now().Add(d)
	for c.step(horizon) {
	}
	c.tr.begin(c.ids.advance)
	c.clock.AdvanceTo(horizon)
	c.tr.end()
}

// runUntil advances until cond holds at a network-idle point, or fails
// after max of virtual time.
func (c *cluster) runUntil(what string, cond func() bool, max time.Duration) error {
	horizon := c.clock.Now().Add(max)
	if c.net.Pending() == 0 && cond() {
		return nil
	}
	for c.step(horizon) {
		if c.net.Pending() == 0 && cond() {
			return nil
		}
	}
	if cond() {
		return nil
	}
	return fmt.Errorf("%s not reached within %v of virtual time", what, max)
}

// warm reports whether every node holds at least one mined block.
func (c *cluster) warm() bool {
	for i, n := range c.nodes {
		if n != nil && c.tips[i].Index < 1 {
			return false
		}
	}
	return true
}

// sameTips reports whether every live node has the same tip (the cheap
// convergence test; the full chain comparison runs once at the end).
func (c *cluster) sameTips() bool {
	var ref *block.Block
	for i, n := range c.nodes {
		if n == nil {
			continue
		}
		if ref == nil {
			ref = c.tips[i]
		} else if c.tips[i].Hash != ref.Hash {
			return false
		}
	}
	return true
}

// nodeHandler wraps the p2p.Handler livenode hands its transport: it
// times each frame by type and logs adoptions after it.
type nodeHandler struct {
	h p2p.Handler
	c *cluster
	i int
}

func (w *nodeHandler) HandleFrame(from string, ft byte, payload []byte) {
	tr := w.c.tr
	tr.begin(w.c.ids.frame[ft])
	w.h.HandleFrame(from, ft, payload)
	tr.end()
	w.c.observe(w.i)
}

// nodeClock is one node's view of the shared virtual clock: its timer
// callbacks are timed and followed by an adoption check.
type nodeClock struct {
	*chaos.VClock
	c *cluster
	i int
}

func (k nodeClock) AfterFunc(d time.Duration, fn func()) livenode.Timer {
	return k.VClock.AfterFunc(d, func() {
		k.c.tr.begin(k.c.ids.timer)
		fn()
		k.c.tr.end()
		k.c.observe(k.i)
	})
}

// tracedTransport times the memnet calls a node makes.
type tracedTransport struct {
	p2p.Transport
	tr  *tracer
	ids *spanIDs
}

func (t *tracedTransport) Peers() []string {
	t.tr.begin(t.ids.peers)
	defer t.tr.end()
	return t.Transport.Peers()
}

func (t *tracedTransport) Send(peer string, ft byte, payload []byte) error {
	t.tr.begin(t.ids.send)
	defer t.tr.end()
	return t.Transport.Send(peer, ft, payload)
}

func (t *tracedTransport) Broadcast(ft byte, payload []byte) (int, int) {
	t.tr.begin(t.ids.broadcast)
	defer t.tr.end()
	return t.Transport.Broadcast(ft, payload)
}

// tracedStore times the core.Store calls that write.
type tracedStore struct {
	core.Store
	tr  *tracer
	ids *spanIDs
}

func (s *tracedStore) AppendBlock(b *block.Block) error {
	s.tr.begin(s.ids.append)
	defer s.tr.end()
	return s.Store.AppendBlock(b)
}

func (s *tracedStore) ResetChain(blocks []*block.Block) error {
	s.tr.begin(s.ids.reset)
	defer s.tr.end()
	return s.Store.ResetChain(blocks)
}

func (s *tracedStore) Checkpoint(height uint64, head block.Hash) error {
	s.tr.begin(s.ids.checkpoint)
	defer s.tr.end()
	return s.Store.Checkpoint(height, head)
}

func (s *tracedStore) PutData(id meta.DataID, content []byte) error {
	s.tr.begin(s.ids.putData)
	defer s.tr.end()
	return s.Store.PutData(id, content)
}

// heightSpread summarizes live nodes' tip heights for a convergence
// failure report.
func (c *cluster) heightSpread() string {
	count := map[uint64]int{}
	var lo, hi uint64 = ^uint64(0), 0
	for i, n := range c.nodes {
		if n == nil {
			continue
		}
		h := c.tips[i].Index
		count[h]++
		lo, hi = min(lo, h), max(hi, h)
	}
	return fmt.Sprintf("tip heights %d..%d, %d nodes at %d, %d at %d, %d in flight", lo, hi, count[lo], lo, count[hi], hi, c.net.Pending())
}
