package main

import (
	"time"

	"repro/internal/p2p"
)

// tracer aggregates wall-clock spans in memory, per span name: how many
// ran, their inclusive time, and their self time (inclusive minus the
// time of the spans nested directly inside). A whole-cluster run makes
// millions of deliveries, so no per-span record is kept. The simulator is
// single-threaded: every span opens and closes on the stepping goroutine,
// so the tracer needs no lock. A nil *tracer records nothing.
type tracer struct {
	start time.Time
	names []string
	ids   map[string]int
	count []int64
	incl  []int64 // ns
	self  []int64 // ns
	stack []openSpan
	// top is the time covered by spans that opened with an empty stack:
	// everything else in the traced window is unattributed.
	top int64
	// queuePeak is the largest number of in-flight memnet messages seen
	// at a step.
	queuePeak int
	// window is the wall time of the measured phase the spans cover; once
	// it is set, the tracer records nothing more.
	window time.Duration
}

type openSpan struct {
	id    int
	start int64
	child int64
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), ids: make(map[string]int)}
}

// id returns the slot of a span name, registering it on first use.
// Callers on hot paths resolve their ids once and keep them.
func (t *tracer) id(name string) int {
	if i, ok := t.ids[name]; ok {
		return i
	}
	t.ids[name] = len(t.names)
	t.names = append(t.names, name)
	t.count = append(t.count, 0)
	t.incl = append(t.incl, 0)
	t.self = append(t.self, 0)
	return len(t.names) - 1
}

func (t *tracer) now() int64 { return int64(time.Since(t.start)) }

// begin opens a span; end closes the innermost open one.
func (t *tracer) begin(id int) {
	if t == nil || t.window > 0 {
		return
	}
	t.stack = append(t.stack, openSpan{id: id, start: t.now()})
}

func (t *tracer) end() {
	if t == nil || t.window > 0 {
		return
	}
	top := len(t.stack) - 1
	s := t.stack[top]
	t.stack = t.stack[:top]
	d := t.now() - s.start
	t.count[s.id]++
	t.incl[s.id] += d
	t.self[s.id] += d - s.child
	if top > 0 {
		t.stack[top-1].child += d
	} else {
		t.top += d
	}
}

// reset zeroes every aggregate except those of the kept span slots, so
// the per-layer numbers cover the measured phase plus the kept set-up
// spans.
func (t *tracer) reset(keep ...int) {
	kept := make(map[int]bool, len(keep))
	for _, k := range keep {
		kept[k] = true
	}
	for i := range t.names {
		if !kept[i] {
			t.count[i], t.incl[i], t.self[i] = 0, 0, 0
		}
	}
	t.top, t.queuePeak = 0, 0
}

// spanStats is one span name's aggregate.
type spanStats struct {
	Count      int64
	Incl, Self time.Duration
}

func (t *tracer) stats(name string) spanStats {
	i, ok := t.ids[name]
	if !ok {
		return spanStats{}
	}
	return spanStats{Count: t.count[i], Incl: time.Duration(t.incl[i]), Self: time.Duration(t.self[i])}
}

// frames names the wire frame types livenode handles, in the order the
// per-layer metrics report them.
var frames = []struct {
	ft   byte
	name string
}{
	{p2p.FrameBlockAnnounce, "block_announce"},
	{p2p.FrameGetBlock, "get_block"},
	{p2p.FrameBlock, "block"},
	{p2p.FrameMetaAnnounce, "meta_announce"},
	{p2p.FrameGetMeta, "get_meta"},
	{p2p.FrameMeta, "meta"},
	{p2p.FrameSyncLocator, "sync_locator"},
	{p2p.FrameSyncHeaders, "sync_headers"},
	{p2p.FrameSyncGetBatch, "sync_get_batch"},
	{p2p.FrameSyncBatch, "sync_batch"},
	{p2p.FrameChainRequest, "chain_request"},
	{p2p.FrameChain, "chain"},
	{p2p.FrameDataRequest, "data_request"},
	{p2p.FrameData, "data"},
	{p2p.FrameRepairProbe, "repair_probe"},
	{p2p.FrameRepairProbeAck, "repair_probe_ack"},
	{p2p.FrameRepairGet, "repair_get"},
	{p2p.FrameRepairData, "repair_data"},
}

// spanIDs are the tracer slots the cluster's hot paths use, resolved
// once per run.
type spanIDs struct {
	deliver, advance, timer            int
	peers, send, broadcast             int
	publish, request, connect, restart int
	next, fire                         int
	append, reset, checkpoint, putData int
	frame                              [256]int
}

func (t *tracer) resolve() spanIDs {
	var s spanIDs
	s.deliver = t.id("memnet.deliver")
	s.advance = t.id("vclock.advance")
	s.timer = t.id("livenode.timer")
	s.peers = t.id("memnet.peers")
	s.send = t.id("memnet.send")
	s.broadcast = t.id("memnet.broadcast")
	s.publish = t.id("livenode.publish")
	s.request = t.id("livenode.request")
	s.connect = t.id("livenode.connect")
	s.restart = t.id("livenode.restart")
	s.next = t.id("workload.next")
	s.fire = t.id("workload.fire")
	s.append = t.id("store.append")
	s.reset = t.id("store.reset")
	s.checkpoint = t.id("store.checkpoint")
	s.putData = t.id("store.put_data")
	other := t.id("livenode.frame.other")
	for i := range s.frame {
		s.frame[i] = other
	}
	for _, f := range frames {
		s.frame[f.ft] = t.id("livenode.frame." + f.name)
	}
	return s
}
