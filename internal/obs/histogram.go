package obs

import (
	"fmt"
	"math"
)

// Histogram is a fixed-bucket log-spaced histogram. The bucket layout is
// frozen at construction — upper bounds grow geometrically from Lo to Hi —
// so Observe touches no maps and allocates nothing: recording in a
// per-frame hot path is a bucket index plus a handful of scalar updates.
//
// A Histogram is not safe for concurrent use; callers serialize access
// (the farm records and snapshots under the stream lock).
type Histogram struct {
	bounds []float64 // ascending upper bounds; values above bounds[len-1] overflow
	counts []int64   // len(bounds)+1; counts[len(bounds)] is the overflow bucket
	count  int64
	sum    float64
	min    float64
	max    float64
}

// NewLogHistogram builds a histogram whose bucket upper bounds run
// geometrically from lo to hi with perDecade buckets per factor of ten.
// Values at or below lo land in the first bucket (so a zero observation is
// representable), values above hi in the overflow bucket. Identical
// arguments always produce the identical layout, which is what lets
// same-shaped histograms merge bucket-for-bucket.
func NewLogHistogram(lo, hi float64, perDecade int) *Histogram {
	if lo <= 0 || hi <= lo || perDecade <= 0 {
		panic(fmt.Sprintf("obs: bad histogram layout lo=%g hi=%g perDecade=%d", lo, hi, perDecade))
	}
	// n steps of ratio 10^(1/perDecade) from lo up to (at least) hi.
	n := int(math.Ceil(math.Log10(hi/lo)*float64(perDecade))) + 1
	bounds := make([]float64, n)
	for i := range bounds {
		bounds[i] = lo * math.Pow(10, float64(i)/float64(perDecade))
	}
	// Pin the last bound exactly at hi so layouts are stable under float
	// noise in the exponentiation.
	bounds[n-1] = hi
	return &Histogram{bounds: bounds, counts: make([]int64, n+1)}
}

// Observe records one value. Zero allocations, no maps: a binary search
// over the fixed bounds and scalar updates.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Bucket is one cumulative histogram bucket: N observations were <= LE.
// The overflow bucket is implicit — Summary.Count minus the last bucket's
// N — which keeps +Inf (unrepresentable in JSON) out of the wire format.
type Bucket struct {
	LE float64 `json:"le"`
	N  int64   `json:"n"`
}

// Summary is a histogram snapshot: the order statistics a dashboard wants
// plus the full cumulative bucket vector, so summaries merge exactly and
// render as native Prometheus histograms.
type Summary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// Buckets is cumulative over the fixed upper bounds (all buckets, zero
	// or not, so two summaries of the same layout merge index-for-index).
	Buckets []Bucket `json:"buckets"`
}

// Snapshot renders the histogram's current state. It allocates (the bucket
// vector); call it on scrape, not per frame.
func (h *Histogram) Snapshot() Summary {
	s := Summary{
		Count:   h.count,
		Sum:     h.sum,
		Min:     h.min,
		Max:     h.max,
		Buckets: make([]Bucket, len(h.bounds)),
	}
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i]
		s.Buckets[i] = Bucket{LE: b, N: cum}
	}
	s.finish()
	return s
}

// finish derives the order statistics from the cumulative buckets.
func (s *Summary) finish() {
	if s.Count == 0 {
		return
	}
	s.Mean = s.Sum / float64(s.Count)
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the owning bucket, clamped to the exactly-tracked [Min, Max]. The
// estimate is deterministic: identical observation streams produce
// identical summaries.
func (s Summary) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := float64(q * float64(s.Count))
	var prevCum int64
	prevBound := s.Min
	for _, b := range s.Buckets {
		if float64(b.N) >= rank {
			inBucket := b.N - prevCum
			v := b.LE
			if inBucket > 0 {
				v = prevBound + (b.LE-prevBound)*(rank-float64(prevCum))/float64(inBucket)
			}
			return clamp(v, s.Min, s.Max)
		}
		prevCum = b.N
		prevBound = b.LE
	}
	// Rank falls in the overflow bucket: everything we know is that the
	// value exceeded the last bound; Max is the tightest honest answer.
	return s.Max
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Clone returns a deep copy with an independent bucket vector, so a
// caller can Merge into (or from) it without mutating the source — Merge
// folds buckets in place, and an empty receiver adopts the other
// summary's vector wholesale.
func (s Summary) Clone() Summary {
	s.Buckets = append([]Bucket(nil), s.Buckets...)
	return s
}

// Merge folds other into s bucket-for-bucket and recomputes the order
// statistics. Both summaries must come from the same layout (the farm's
// per-stream histograms share their constructors); mismatched layouts
// return an error instead of silently corrupting the distribution.
func (s *Summary) Merge(other Summary) error {
	if other.Count == 0 {
		return nil
	}
	if s.Count == 0 {
		*s = other
		return nil
	}
	if len(s.Buckets) != len(other.Buckets) {
		return fmt.Errorf("obs: merging summaries with %d vs %d buckets", len(s.Buckets), len(other.Buckets))
	}
	for i := range s.Buckets {
		if s.Buckets[i].LE != other.Buckets[i].LE {
			return fmt.Errorf("obs: merging summaries with mismatched bound %g vs %g at bucket %d",
				s.Buckets[i].LE, other.Buckets[i].LE, i)
		}
		s.Buckets[i].N += other.Buckets[i].N
	}
	s.Count += other.Count
	s.Sum += other.Sum
	if other.Min < s.Min {
		s.Min = other.Min
	}
	if other.Max > s.Max {
		s.Max = other.Max
	}
	s.finish()
	return nil
}
