package main

import "repro/internal/telemetry"

// layerMetrics turns the traced repetition's spans and the cluster's
// telemetry into the per-layer metrics. untracedRun is the median
// untraced run_s, the base of trace.overhead_frac.
func layerMetrics(r *rep, untracedRun float64) []metric {
	tr := r.tr
	var out []metric
	add := func(name string, v float64, unit string) {
		out = append(out, metric{name: name, value: v, unit: unit})
	}
	span := func(name string, self bool) {
		s := tr.stats(name)
		add(name+".count", float64(s.Count), "count")
		add(name+".ms", ms(s.Incl), "ms")
		if self {
			add(name+".self_ms", ms(s.Self), "ms")
		}
	}

	// memnet
	d := tr.stats("memnet.deliver")
	add("memnet.deliver.count", float64(d.Count), "count")
	add("memnet.deliver.self_ms", ms(d.Self), "ms")
	for _, n := range []string{"peers", "send", "broadcast"} {
		span("memnet."+n, false)
	}
	add("memnet.queue.peak", float64(tr.queuePeak), "count")

	// the virtual clock's timer heap (self time excludes the timers fired)
	a := tr.stats("vclock.advance")
	add("vclock.advance.count", float64(a.Count), "count")
	add("vclock.advance.self_ms", ms(a.Self), "ms")

	// livenode frames, timers and calls
	for _, f := range frames {
		span("livenode.frame."+f.name, true)
	}
	span("livenode.timer", true)
	span("livenode.publish", false)
	span("livenode.request", false)
	add("livenode.connect.ms", ms(tr.stats("livenode.connect").Incl), "ms")
	add("livenode.restart.ms", ms(tr.stats("livenode.restart").Incl), "ms")

	// store
	for _, n := range []string{"append", "reset", "checkpoint", "put_data"} {
		span("store."+n, false)
	}
	var fsync telemetry.HistSnapshot
	for _, reg := range r.c.regs {
		fsync = mergeHist(fsync, reg.Snapshot().Histogram("store.wal.fsync_ns"))
	}
	add("store.wal.fsync_p50_us", fsync.P50/1e3, "us")
	add("store.wal.fsync_p99_us", fsync.P99/1e3, "us")

	// engine / chain, counted over the measured phase
	counters := make(map[string]uint64, len(phaseCounters))
	for _, name := range phaseCounters {
		counters[name] = r.countersEnd[name] - r.countersStart[name]
	}
	adoptions, replays := counters["livenode.fork.adoptions"], counters["livenode.sync.full_replays"]
	add("engine.fork_adoptions", float64(adoptions), "count")
	add("engine.full_replays", float64(replays), "count")
	add("engine.full_replay_frac", ratio(float64(replays), float64(adoptions)), "ratio")
	add("livenode.sync.rounds", float64(counters["livenode.sync.rounds"]), "count")
	add("livenode.sync.retries", float64(counters["livenode.sync.retries"]), "count")

	// useful-work ratios
	add("livenode.gossip.useful_frac", ratio(float64(counters["livenode.gossip.fetches_sent"]),
		float64(tr.stats("livenode.frame.block_announce").Count)), "ratio")
	add("livenode.metagossip.useful_frac", ratio(float64(counters["livenode.metagossip.fetches_sent"]),
		float64(tr.stats("livenode.frame.meta_announce").Count)), "ratio")
	add("repair.enqueued", float64(counters["livenode.repair.enqueued"]), "count")
	add("repair.completed", float64(counters["livenode.repair.completed"]), "count")

	// workload
	span("workload.next", false)

	// trace
	run := tr.window.Seconds()
	add("trace.overhead_frac", run/untracedRun-1, "ratio")
	add("trace.unattributed_frac", 1-float64(tr.top)/float64(tr.window), "ratio")
	return out
}

// phaseCounters are the node telemetry counters the per-layer metrics
// read, summed over nodes at the start and the end of the measured phase.
var phaseCounters = []string{
	"livenode.fork.adoptions", "livenode.sync.full_replays", "livenode.sync.rounds",
	"livenode.sync.retries", "livenode.gossip.fetches_sent", "livenode.metagossip.fetches_sent",
	"livenode.repair.enqueued", "livenode.repair.completed",
}

// sumCounters sums the phase counters over every node's registry.
func (c *cluster) sumCounters() map[string]uint64 {
	out := make(map[string]uint64, len(phaseCounters))
	for _, reg := range c.regs {
		s := reg.Snapshot()
		for _, name := range phaseCounters {
			out[name] += s.Counter(name)
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mergeHist folds per-node fsync histogram summaries into one by taking
// the count-weighted mean of each quantile — an approximation, since the
// per-node bucket arrays are not exported.
func mergeHist(a, b telemetry.HistSnapshot) telemetry.HistSnapshot {
	n := a.Count + b.Count
	if n == 0 {
		return a
	}
	w := func(x, y float64) float64 { return (x*float64(a.Count) + y*float64(b.Count)) / float64(n) }
	return telemetry.HistSnapshot{Count: n, P50: w(a.P50, b.P50), P99: w(a.P99, b.P99), Mean: w(a.Mean, b.Mean)}
}
