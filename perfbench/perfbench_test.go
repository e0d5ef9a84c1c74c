package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/meta"
)

func samples(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		wantP  float64
		beyond int
	}{
		{n: 20000, wantP: 99.9, beyond: 20},
		{n: 10000, wantP: 99.9, beyond: 10},
		{n: 9999, wantP: 99.5, beyond: 49},
		{n: 1000, wantP: 99, beyond: 10},
		{n: 200, wantP: 95, beyond: 10},
		{n: 100, wantP: 90, beyond: 10},
		{n: 50, wantP: 80, beyond: 10},
		{n: 40, wantP: 75, beyond: 10},
		// Too few for any tail: fall back to the median.
		{n: 39, wantP: 50, beyond: 19},
		{n: 20, wantP: 50, beyond: 10},
		{n: 7, wantP: 50, beyond: 3},
	} {
		p, v, beyond := tail(samples(tc.n))
		if p != tc.wantP || beyond != tc.beyond {
			t.Errorf("n=%d: got p%g with %d beyond, want p%g with %d", tc.n, p, beyond, tc.wantP, tc.beyond)
		}
		if want := percentile(samples(tc.n), p); v != want {
			t.Errorf("n=%d: value %v, want percentile %v", tc.n, v, want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	for _, tc := range []struct{ p, want float64 }{{50, 25}, {0, 10}, {100, 40}, {99, 39.7}} {
		if got := percentile(s, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("p%g = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// spin busy-waits so a span has a measurable, known minimum length.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

func TestSelfTimeSubtractsNestedSends(t *testing.T) {
	tr := newTracer()
	ids := tr.resolve()
	frame := ids.frame[byte(1)] // any id works as the handler span
	tr.begin(ids.deliver)
	tr.begin(frame)
	spin(2 * time.Millisecond)
	for i := 0; i < 3; i++ {
		tr.begin(ids.send)
		spin(3 * time.Millisecond)
		tr.end()
	}
	tr.end()
	tr.end()

	send := tr.stats("memnet.send")
	if send.Count != 3 || send.Self != send.Incl {
		t.Fatalf("send spans: %+v (leaf spans' self time is their whole time)", send)
	}
	name := tr.names[frame]
	h := tr.stats(name)
	if h.Count != 1 {
		t.Fatalf("handler count %d", h.Count)
	}
	if h.Self != h.Incl-send.Incl {
		t.Fatalf("handler self %v != inclusive %v - sends %v", h.Self, h.Incl, send.Incl)
	}
	if h.Self < 2*time.Millisecond || h.Self >= h.Incl {
		t.Fatalf("handler self %v out of range (inclusive %v)", h.Self, h.Incl)
	}
	d := tr.stats("memnet.deliver")
	if d.Self != d.Incl-h.Incl {
		t.Fatalf("deliver self %v != inclusive %v - handler %v", d.Self, d.Incl, h.Incl)
	}
	if time.Duration(tr.top) != d.Incl {
		t.Fatalf("top-level time %v, want the outer span's %v", time.Duration(tr.top), d.Incl)
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *tracer
	tr.begin(0)
	tr.end()
}

func id(b byte) meta.DataID { return meta.DataID{b} }

func TestOpsAccounting(t *testing.T) {
	var o opLog
	o.fetches = make(map[fetchKey]*fetchRec)
	ms := time.Millisecond

	o.published(id(1), 100*ms) // packed at 1.1s
	o.published(id(2), 200*ms) // never packed: failed
	o.rejected(300 * ms)       // rejected: failed

	o.requested(5, id(1), 1000*ms)
	o.answered(5, id(1), 1040*ms) // answered after 40ms
	o.answered(5, id(1), 2000*ms) // a later duplicate arrival changes nothing
	o.requested(6, id(1), 1000*ms)
	o.localHit(6, id(1)) // held already: succeeds, no latency sample
	o.requested(7, id(1), 1000*ms)
	if o.requested(7, id(1), 31000*ms) {
		t.Fatal("a retry must not register a second fetch")
	}
	// node 7 is never answered: failed.

	chain := []*block.Block{
		block.Genesis(1),
		{Index: 1, Timestamp: 1100 * ms, Items: []*meta.Item{{ID: id(1)}}},
		{Index: 2, Timestamp: 5000 * ms, Items: []*meta.Item{{ID: id(1)}}}, // re-announcement
	}
	s := o.summarize(firstPacked(chain))
	if s.attempted != 6 || s.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 6 and 3", s.attempted, s.failed)
	}
	if s.rejected != 1 || s.unpacked != 1 || s.unanswered != 1 || s.localHits != 1 {
		t.Fatalf("breakdown %+v", s)
	}
	if len(s.commitMs) != 1 || s.commitMs[0] != 1000 {
		t.Fatalf("commit latencies %v, want [1000] (first packing block)", s.commitMs)
	}
	if len(s.fetchMs) != 1 || s.fetchMs[0] != 40 {
		t.Fatalf("fetch latencies %v, want [40]", s.fetchMs)
	}
}

func chainOf(tags ...byte) []*block.Block {
	out := make([]*block.Block, len(tags))
	for i, tag := range tags {
		out[i] = &block.Block{Index: uint64(i), Hash: block.Hash{tag}}
	}
	return out
}

func TestLosingSideOfEqualLengthFork(t *testing.T) {
	final := chainOf(0, 1, 2, 'b', 'b'+1, 'b'+2)
	lost := chainOf(0, 1, 2, 'a', 'a'+1) // as long as the winning side
	won := chainOf(0, 1, 2, 'b', 'b'+1)
	for _, sides := range [][2][]*block.Block{{lost, won}, {won, lost}} {
		side, fork := losingSide(sides, final)
		if len(side) != len(lost) || side[3] != lost[3] || fork != 2 {
			t.Fatalf("losing side %v forked at %d, want the a-side forked at 2", side, fork)
		}
	}
	if side, _ := losingSide([2][]*block.Block{won, final}, final); side != nil {
		t.Fatalf("no side left the final chain, got %v", side)
	}
	if side, _ := losingSide([2][]*block.Block{}, final); side != nil {
		t.Fatal("no partition, no losing side")
	}
}

func TestSpeedProbeSamplesEveryProbeEveryStepsAndScales(t *testing.T) {
	p := newSpeedProbe()
	for range 3*probeEvery - 1 {
		p.tick()
	}
	if p.samples != 2 {
		t.Fatalf("%d samples after %d steps, want 2", p.samples, 3*probeEvery-1)
	}
	p.burst()
	if p.samples != 2+probeBurst || p.cpu <= 0 || p.wall <= 0 {
		t.Fatalf("after a burst: %d samples, cpu %v, wall %v", p.samples, p.cpu, p.wall)
	}
	// A phase that cost k mean probe samples of CPU is k nominal samples
	// in reference seconds, whatever the machine's speed.
	got := p.refSeconds(7 * p.mean())
	if want := 7 * probeNominal.Seconds(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("refSeconds(7 means) = %v, want %v", got, want)
	}
	var nilProbe *speedProbe
	nilProbe.tick()
	nilProbe.burst()
}
