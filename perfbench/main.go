// Command perfbench is the repository benchmark. It runs one named
// workload on a deterministic virtual-clock cluster of live nodes,
// checks the run is correct, and prints the end-to-end metrics; with
// --trace 1 it also runs the workload traced and prints per-layer
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it from source; see NOTES.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/alloc"
	"repro/internal/block"
	"repro/internal/chaos"
	"repro/internal/meta"
	"repro/internal/metrics"
	"repro/internal/repair"
)

func main() {
	name := flag.String("workload", "", "workload: scale1000, items256 or partition-heal")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measuring budget in wall seconds: one repetition per nominal repetition time it holds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	work := flag.String("workdir", ".bench_build", "directory for stores and profiles")
	flag.Parse()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := bench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // percentile and sample count, for timings
}

// rep is one complete repetition: set-up, measured phase, checks.
type rep struct {
	setup, run, cpu time.Duration
	// setupRef and runRef are set-up and measured-phase CPU time in
	// reference seconds (probe.go).
	setupRef, runRef float64
	probeMean        time.Duration // the probe's mean cost in the measured phase
	converge         time.Duration // virtual wait for convergence after the measured phase
	fp               fingerprint
	virt             []metric // exact per seed
	attempted        int
	failed           int
	localHits        int
	// For a traced repetition: the tracer, the cluster, and its node
	// counters at the start and the end of the measured phase.
	tr                         *tracer
	c                          *cluster
	countersStart, countersEnd map[string]uint64
}

// fingerprint is what two runs of one workload and seed must share.
type fingerprint struct {
	digest, events uint64
	tip            block.Hash
	height         uint64
}

func bench(name string, seed int64, budget time.Duration, traced bool, work string) error {
	sp, err := findSpec(name)
	if err != nil {
		return err
	}
	names, err := specMetrics("BENCHMARK.json", traced)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	fmt.Printf("perfbench workload=%s seed=%d trace=%v gomaxprocs=%d go=%s\n",
		sp.name, seed, traced, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("workload %s: %s\n", sp.name, sp.why)

	if !traced {
		return untraced(sp, seed, budget, work, names)
	}

	// Two untraced runs and the traced run of the same seed must agree
	// exactly.
	var reps [2]*rep
	for k := range reps {
		r, err := runRep(sp, seed, nil, work, "")
		if err != nil {
			return err
		}
		reps[k] = r
		fmt.Printf("rep %d: setup %.3fs run %.3fs cpu %.3fs, then %v virtual to converge\n",
			k+1, r.setup.Seconds(), r.run.Seconds(), r.cpu.Seconds(), r.converge)
	}
	first := reps[0]
	if err := sameRun(first, reps[1], "second untraced run"); err != nil {
		return err
	}
	runMedian := median([]float64{reps[0].run.Seconds(), reps[1].run.Seconds()})

	// Traced repetition with a CPU profile of its measured phase.
	prof := filepath.Join(work, "profiles", fmt.Sprintf("%s-seed%d.pprof", sp.name, seed))
	tr := newTracer()
	r, err := runRep(sp, seed, tr, work, prof)
	if err != nil {
		return err
	}
	if err := sameRun(first, r, "traced run"); err != nil {
		return err
	}
	fmt.Printf("traced rep: setup %.3fs run %.3fs cpu %.3fs\ncpu profile: %s\n", r.setup.Seconds(), r.run.Seconds(), r.cpu.Seconds(), prof)
	out := layerMetrics(r, runMedian)
	rm, err := replayStage(r.c)
	if err != nil {
		return fmt.Errorf("replay stage: %w", err)
	}
	out = append(out, rm...)
	return emit(r.attempted, r.failed, out, names)
}

// trafficSeed is the traffic seed of an untraced invocation's k-th
// repetition: the invocation's seed first, then negative seeds, which no
// invocation's own seed collides with.
func trafficSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	return -(seed*100 + int64(k))
}

// untraced runs one repetition per sp.repWall of the budget, at least
// one, each on its own traffic seed: more independent work per
// invocation. The count depends on the budget alone, so a faster program
// measures the same traffic as a slower one. run_ref_s and the exact
// metrics are means over the repetitions, the op counts their sums; the
// raw wall and CPU times are medians. Set-up alone is repeated until
// there are sp.setUps set-up samples; setup_s is their median.
func untraced(sp *spec, seed int64, budget time.Duration, work string, names []string) error {
	var reps []*rep
	var runs, cpus, refs, setups, setupRefs []float64
	for k := 0; k < max(1, int(budget/sp.repWall)); k++ {
		r, err := runRep(sp, trafficSeed(seed, k), nil, work, "")
		if err != nil {
			return err
		}
		reps = append(reps, r)
		runs = append(runs, r.run.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		refs = append(refs, r.runRef)
		setups = append(setups, r.setup.Seconds())
		setupRefs = append(setupRefs, r.setupRef)
		fmt.Printf("rep %d (traffic seed %d): setup %.3fs (%.3f ref s) run %.3fs cpu %.3fs (%.3f ref s, probe %v), then %v virtual to converge\n",
			k+1, trafficSeed(seed, k), r.setup.Seconds(), r.setupRef, r.run.Seconds(), r.cpu.Seconds(), r.runRef, r.probeMean, r.converge)
	}
	for len(setups) < sp.setUps {
		st, err := setUpOnly(sp, seed, work)
		if err != nil {
			return err
		}
		setups = append(setups, st.wall.Seconds())
		setupRefs = append(setupRefs, st.ref)
		fmt.Printf("set-up %d: %.3fs (%.3f ref s)\n", len(setups), st.wall.Seconds(), st.ref)
	}
	out := []metric{
		{name: "setup_s", value: median(setupRefs), unit: "s", note: fmt.Sprintf("CPU in reference seconds, median of %d", len(setupRefs))},
		{name: "setup_wall_s", value: median(setups), unit: "s", note: fmt.Sprintf("median of %d", len(setups))},
		{name: "run_ref_s", value: mean(refs), unit: "s", note: fmt.Sprintf("CPU in reference seconds, mean of %d", len(refs))},
		{name: "run_s", value: median(runs), unit: "s", note: fmt.Sprintf("median of %d", len(runs))},
		{name: "cpu_s", value: median(cpus), unit: "s", note: fmt.Sprintf("median of %d", len(cpus))},
		{name: "peak_rss_mb", value: peakRSSMB(), unit: "MB"},
	}
	attempted, failed, localHits := 0, 0, 0
	for i, m := range reps[0].virt {
		var vals []float64
		for _, r := range reps {
			vals = append(vals, r.virt[i].value)
		}
		m.value = mean(vals)
		if len(reps) > 1 {
			m.note = fmt.Sprintf("mean of %d; first: %g, %s", len(reps), vals[0], m.note)
		}
		out = append(out, m)
	}
	for _, r := range reps {
		attempted += r.attempted
		failed += r.failed
		localHits += r.localHits
	}
	fmt.Printf("generator_lateness_ms 0 (open loop on the virtual clock)\nlocal_hits %d\n", localHits)
	return emit(attempted, failed, out, names)
}

// setUp builds the cluster (stores under dir when the workload is
// durable), connects every pair and warms it until every node holds a
// mined block. It returns the cluster and how long that took.
func setUp(sp *spec, seed int64, dir string, tr *tracer) (*cluster, setupTime, error) {
	runtime.GC()
	p := newSpeedProbe()
	ph := startPhase(p)
	p.burst()
	c, err := newCluster(sp, seed, dir, tr)
	if err != nil {
		return nil, setupTime{}, err
	}
	c.probe = p
	if err := c.connectAll(); err != nil {
		c.close()
		return nil, setupTime{}, err
	}
	if err := c.runUntil("warm-up to height 1", c.warm, 10*time.Minute); err != nil {
		c.close()
		return nil, setupTime{}, err
	}
	p.burst()
	c.probe = nil
	wall, _, ref := ph.stop()
	return c, setupTime{wall: wall, ref: ref}, nil
}

// setupTime is one set-up's wall time and its CPU time in reference
// seconds.
type setupTime struct {
	wall time.Duration
	ref  float64
}

// phase times one phase of a run while a speedProbe samples the machine:
// wall and process CPU time, each less the probe's own samples, and the
// CPU time in reference seconds.
type phase struct {
	t0   time.Time
	cpu0 time.Duration
	p    *speedProbe
}

func startPhase(p *speedProbe) phase { return phase{t0: time.Now(), cpu0: cpuTime(), p: p} }

func (ph phase) stop() (wall, cpu time.Duration, ref float64) {
	wall = time.Since(ph.t0) - ph.p.wall
	cpu = cpuTime() - ph.cpu0 - ph.p.cpu
	return wall, cpu, ph.p.refSeconds(cpu)
}

// storeDir makes a fresh store directory for a durable workload ("" for
// an in-memory one) and returns it with its cleanup.
func storeDir(sp *spec, work string) (string, func(), error) {
	if !sp.disk {
		return "", func() {}, nil
	}
	dir, err := os.MkdirTemp(work, "stores-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// setUpOnly times one more set-up without running the workload.
func setUpOnly(sp *spec, seed int64, work string) (setupTime, error) {
	dir, cleanup, err := storeDir(sp, work)
	if err != nil {
		return setupTime{}, err
	}
	defer cleanup()
	c, st, err := setUp(sp, seed, dir, nil)
	if err != nil {
		return setupTime{}, err
	}
	c.close()
	return st, nil
}

// runRep sets up, runs the workload to convergence plus the settle
// window (the measured phase), and checks the result.
func runRep(sp *spec, seed int64, tr *tracer, work, profile string) (*rep, error) {
	dir, cleanup, err := storeDir(sp, work)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	c, st, err := setUp(sp, seed, dir, tr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	r := &rep{setup: st.wall, setupRef: st.ref, tr: tr}

	if profile != "" {
		if err := os.MkdirAll(filepath.Dir(profile), 0o755); err != nil {
			return nil, err
		}
		f, err := os.Create(profile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		tr.reset(c.ids.connect)
		r.countersStart = c.sumCounters()
	}
	// Every measured phase starts from a collected heap, so set-up's
	// garbage is not charged to it.
	runtime.GC()
	c.probe = newSpeedProbe()
	ph := startPhase(c.probe)
	if err := c.startStream(); err != nil {
		return nil, err
	}
	dur := sp.stream(seed).Duration
	if err := c.runUntil("stream end", func() bool { return c.streamDone }, dur+10*time.Minute); err != nil {
		return nil, err
	}
	if wait := c.lastFetchDue - c.vnow(); wait > 0 {
		c.run(wait)
	}
	c.run(sp.settle)
	// The measured phase is a fixed stretch of virtual time per seed. The
	// wait for chain convergence that follows is not timed: how long
	// stragglers take to catch up jumps with the seed.
	r.run, r.cpu, r.runRef = ph.stop()
	r.probeMean = c.probe.mean()
	c.probe = nil
	if profile != "" {
		pprof.StopCPUProfile()
	}
	if tr != nil {
		tr.window = r.run
		r.countersEnd = c.sumCounters()
	}
	settled := c.vnow()
	if err := c.runUntil("chain convergence", c.sameTips, convergeMax); err != nil {
		return nil, fmt.Errorf("%w (%s)", err, c.heightSpread())
	}
	c.finished = true
	r.converge = c.vnow() - settled
	if c.schedErr != nil {
		return nil, fmt.Errorf("fault schedule: %w", c.schedErr)
	}
	if err := check(c); err != nil {
		return nil, err
	}
	if err := measure(c, r); err != nil {
		return nil, err
	}
	if tr != nil {
		r.c = c
	}
	return r, nil
}

// check runs the chaos invariants on the converged cluster.
func check(c *cluster) error {
	nodes := c.live()
	if len(nodes) != c.sp.n {
		return fmt.Errorf("check: %d of %d nodes live at run end", len(nodes), c.sp.n)
	}
	if err := chaos.CheckConvergence(nodes); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	if err := chaos.CheckChainValidity(nodes[0].ChainSnapshot(), c.accounts, c.params); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	now := c.vnow()
	for i, n := range nodes {
		if err := chaos.CheckLedgerAccounting(n, c.accounts, now); err != nil {
			return fmt.Errorf("check: node %d: %w", i, err)
		}
	}
	if c.sp.faults != nil {
		if len(c.prefix) == 0 {
			return errors.New("check: no common prefix captured before the partition")
		}
		for i, n := range nodes {
			if err := chaos.CheckPrefixPreserved(c.prefix, n); err != nil {
				return fmt.Errorf("check: node %d: %w", i, err)
			}
		}
		if c.restarted != crashCount {
			return fmt.Errorf("check: %d of %d crashed nodes restarted", c.restarted, crashCount)
		}
	}
	return nil
}

// measure computes the run's exact (virtual-time and byte) metrics.
func measure(c *cluster, r *rep) error {
	chain := c.nodes[0].ChainSnapshot()
	c.final = chain
	tip := chain[len(chain)-1]
	r.fp = fingerprint{digest: c.net.EventDigest(), events: c.net.EventCount(), tip: tip.Hash, height: tip.Index}

	var prop []float64
	for _, b := range chain[1:] {
		for i := range c.nodes {
			at, ok := c.adopted[i][b.Hash]
			if !ok {
				return fmt.Errorf("measure: node %d never observed adopting block %d", i, b.Index)
			}
			prop = append(prop, ms(at-b.Timestamp))
		}
	}
	sort.Float64s(prop)

	packed := firstPacked(chain)
	ops := c.ops.summarize(packed)
	r.attempted, r.failed, r.localHits = ops.attempted, ops.failed, ops.localHits
	if ops.failed > 0 {
		fmt.Printf("failed ops: %d publishes rejected, %d published items not on the final chain, %d fetches unanswered\n",
			ops.rejected, ops.unpacked, ops.unanswered)
	}
	if ops.unpacked > 0 && c.forkSides[0] != nil {
		// Items packed only on the partition side whose chain lost at the
		// heal: fork adoption does not return them to the pool.
		sides := []map[meta.DataID]time.Duration{firstPacked(c.forkSides[0]), firstPacked(c.forkSides[1])}
		lost := 0
		for _, p := range c.ops.pubs {
			if _, ok := packed[p.id]; ok || p.rejected {
				continue
			}
			for _, side := range sides {
				if _, ok := side[p.id]; ok {
					lost++
					break
				}
			}
		}
		fmt.Printf("unpacked items that a side chain had packed before the heal: %d of %d\n", lost, ops.unpacked)
	}
	if len(ops.commitMs) == 0 || len(ops.fetchMs) == 0 {
		return fmt.Errorf("measure: %d committed items and %d network fetches; need both", len(ops.commitMs), len(ops.fetchMs))
	}

	var wireSum, wirePeak float64
	var adoptions, replays uint64
	for _, reg := range c.regs {
		s := reg.Snapshot()
		kb := float64(s.Counter("livenode.wire.consensus_bytes")+s.Counter("livenode.wire.data_bytes")+
			s.Counter("livenode.wire.repair_bytes")) / 1024
		wireSum += kb
		wirePeak = max(wirePeak, kb)
		adoptions += s.Counter("livenode.fork.adoptions")
		replays += s.Counter("livenode.sync.full_replays")
	}
	fmt.Printf("final height %d, %d network events, %d fork adoptions (%d full replays), %d items published\n",
		tip.Index, r.fp.events, adoptions, replays, len(c.ops.pubs))

	idx := repair.NewIndex(c.sp.n)
	idx.Rebuild(chain)
	idx.ExpireUntil(c.vnow())
	stored := make([]int, c.sp.n)
	pairs, held := 0, 0
	for _, id := range idx.Live() {
		for _, p := range idx.Providers(id) {
			stored[p]++
			pairs++
			if c.nodes[p].HasData(id) {
				held++
			}
		}
	}
	if pairs == 0 {
		return errors.New("measure: no live item assignments on the final chain")
	}

	timing := func(name string, sorted []float64, p float64) metric {
		return metric{name: name, value: percentile(sorted, p), unit: "ms",
			note: fmt.Sprintf("p%g of %d", p, len(sorted))}
	}
	tailTiming := func(name string, sorted []float64) metric {
		p, v, beyond := tail(sorted)
		return metric{name: name, value: v, unit: "ms",
			note: fmt.Sprintf("p%g of %d, %d beyond", p, len(sorted), beyond)}
	}
	r.virt = []metric{
		timing("block_prop_p50_ms", prop, 50),
		timing("block_prop_p99_ms", prop, 99),
		timing("item_commit_p50_ms", ops.commitMs, 50),
		tailTiming("item_commit_tail_ms", ops.commitMs),
		timing("fetch_p50_ms", ops.fetchMs, 50),
		tailTiming("fetch_tail_ms", ops.fetchMs),
		{name: "ops_failed_frac", value: float64(ops.failed) / float64(ops.attempted), unit: "ratio",
			note: fmt.Sprintf("%d of %d", ops.failed, ops.attempted)},
		{name: "wire_kb_per_node", value: wireSum / float64(c.sp.n), unit: "KB"},
		{name: "peak_node_wire_kb", value: wirePeak, unit: "KB"},
		{name: "storage_gini", value: metrics.GiniInts(stored), unit: "gini"},
		{name: "replica_fill_frac", value: float64(held) / float64(pairs), unit: "ratio",
			note: fmt.Sprintf("%d of %d, floor %d", held, pairs, alloc.DefaultMinReplicas)},
	}
	return nil
}

// sameRun fails unless b reproduces a: the network event digest and
// count, the final tip, and every exact metric.
func sameRun(a, b *rep, what string) error {
	if a.fp != b.fp {
		return fmt.Errorf("%s diverged: digest %016x/%016x events %d/%d height %d/%d",
			what, a.fp.digest, b.fp.digest, a.fp.events, b.fp.events, a.fp.height, b.fp.height)
	}
	for i := range a.virt {
		if a.virt[i].value != b.virt[i].value {
			return fmt.Errorf("%s diverged on %s: %v vs %v", what, a.virt[i].name, a.virt[i].value, b.virt[i].value)
		}
	}
	if a.attempted != b.attempted || a.failed != b.failed {
		return fmt.Errorf("%s diverged on ops: %d/%d vs %d/%d", what, a.failed, a.attempted, b.failed, b.attempted)
	}
	return nil
}

// specMetrics reads the metric names BENCHMARK.json lists for this
// mode: its end_to_end metrics for an untraced run, its per_layer
// metrics for a traced one.
func specMetrics(path string, traced bool) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	names := make([]string, len(list))
	for i, m := range list {
		names[i] = m.Name
	}
	return names, nil
}

// emit prints every metric as a table line, then the JSON result line
// carrying the metrics named in the spec file.
func emit(attempted, failed int, out []metric, names []string) error {
	byName := make(map[string]metric, len(out))
	for _, m := range out {
		line := fmt.Sprintf("%-40s %16.6f %s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Println(line)
		byName[m.name] = m
	}
	js := make(map[string]map[string]any, len(names))
	for _, name := range names {
		m, ok := byName[name]
		if !ok {
			return fmt.Errorf("metric %s is listed in the spec but was not measured", name)
		}
		js[name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   js,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}
