package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/block"
	"repro/internal/meta"
)

// An op is one publish or one fetch. opLog records when each was issued
// and, for fetches, when it was answered; the final chain decides which
// publishes committed.
type opLog struct {
	pubs    []pubRec
	fetches map[fetchKey]*fetchRec
	order   []fetchKey // issue order, for deterministic summaries
}

type pubRec struct {
	id       meta.DataID
	at       time.Duration
	rejected bool // the producer was down or Publish returned an error
}

type fetchKey struct {
	node int
	id   meta.DataID
}

type fetchRec struct {
	at       time.Duration // first RequestData
	answered bool
	local    bool // the requester already held the bytes: no fetch needed
	latency  time.Duration
}

func (o *opLog) published(id meta.DataID, at time.Duration) {
	o.pubs = append(o.pubs, pubRec{id: id, at: at})
}

func (o *opLog) rejected(at time.Duration) {
	o.pubs = append(o.pubs, pubRec{at: at, rejected: true})
}

// requested registers a fetch; it reports false for a repeat of a fetch
// already registered (a client retry), which keeps its first issue time.
func (o *opLog) requested(node int, id meta.DataID, at time.Duration) bool {
	k := fetchKey{node, id}
	if _, ok := o.fetches[k]; ok {
		return false
	}
	o.fetches[k] = &fetchRec{at: at}
	o.order = append(o.order, k)
	return true
}

// localHit settles a fetch whose requester held the bytes when it came
// due: it succeeds without a latency sample.
func (o *opLog) localHit(node int, id meta.DataID) {
	if f := o.fetches[fetchKey{node, id}]; f != nil && !f.answered {
		f.answered, f.local = true, true
	}
}

// answered is the OnData hook: the first arrival of id at node answers
// its pending fetch.
func (o *opLog) answered(node int, id meta.DataID, now time.Duration) {
	if f := o.fetches[fetchKey{node, id}]; f != nil && !f.answered {
		f.answered = true
		f.latency = now - f.at
	}
}

func (o *opLog) pending(node int, id meta.DataID) bool {
	f := o.fetches[fetchKey{node, id}]
	return f != nil && !f.answered
}

// opSummary is what the run's ops add up to.
type opSummary struct {
	attempted, failed int
	// The failures by kind: publishes rejected, published items missing
	// from the final chain, fetches unanswered.
	rejected, unpacked, unanswered int
	localHits                      int
	commitMs                       []float64 // publish → packing block timestamp, sorted
	fetchMs                        []float64 // request → answer, network fetches only, sorted
}

// firstPacked maps every item on a chain to the timestamp of the lowest
// block that packs it.
func firstPacked(chain []*block.Block) map[meta.DataID]time.Duration {
	out := make(map[meta.DataID]time.Duration)
	for _, b := range chain {
		for _, it := range b.Items {
			if _, ok := out[it.ID]; !ok {
				out[it.ID] = b.Timestamp
			}
		}
	}
	return out
}

// summarize counts ops against the final chain. A publish fails if it
// was rejected or its item never reached the chain; a fetch fails if it
// is unanswered at run end.
func (o *opLog) summarize(packed map[meta.DataID]time.Duration) opSummary {
	var s opSummary
	for _, p := range o.pubs {
		s.attempted++
		at, ok := packed[p.id]
		switch {
		case p.rejected:
			s.rejected++
		case !ok:
			s.unpacked++
		}
		if p.rejected || !ok {
			s.failed++
			continue
		}
		s.commitMs = append(s.commitMs, ms(at-p.at))
	}
	for _, k := range o.order {
		f := o.fetches[k]
		s.attempted++
		switch {
		case !f.answered:
			s.failed++
			s.unanswered++
		case f.local:
			s.localHits++
		default:
			s.fetchMs = append(s.fetchMs, ms(f.latency))
		}
	}
	sort.Float64s(s.commitMs)
	sort.Float64s(s.fetchMs)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the p-th percentile (0 < p < 100) of sorted by
// linear interpolation between closest ranks; NaN for no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailLadder lists the percentiles a tail metric may report, highest
// first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// minBeyond is how many samples must lie above a reported tail
// percentile.
const minBeyond = 10

// tail picks the highest percentile on the ladder that has at least
// minBeyond samples beyond it, and its value. Samples too few for any
// tail fall back to the median, with beyond telling how thin it is.
func tail(sorted []float64) (p, value float64, beyond int) {
	n := len(sorted)
	for _, q := range tailLadder {
		beyond = n - rankAt(q, n)
		if beyond >= minBeyond {
			return q, percentile(sorted, q), beyond
		}
	}
	return 50, percentile(sorted, 50), n - rankAt(50, n)
}

// rankAt is how many of n samples lie at or below the q-th percentile
// (with a tolerance for q·n/100 landing a rounding error above a whole
// number).
func rankAt(q float64, n int) int {
	return int(math.Ceil(q*float64(n)/100 - 1e-9))
}
