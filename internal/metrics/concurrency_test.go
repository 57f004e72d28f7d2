package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestRateMeterRateDoesNotMutate pins the telemetry-safety contract: an
// arbitrary number of interleaved Rate calls (e.g. HTTP scrapes) between
// Adds must not change any subsequent reading compared to a meter that was
// never scraped.
func TestRateMeterRateDoesNotMutate(t *testing.T) {
	scraped := NewRateMeter(time.Second, 10)
	clean := NewRateMeter(time.Second, 10)
	times := []time.Duration{
		0, 50 * time.Millisecond, 400 * time.Millisecond,
		time.Second, 2500 * time.Millisecond, time.Minute, time.Hour,
	}
	for i, now := range times {
		scraped.Add(now, float64(i+1))
		clean.Add(now, float64(i+1))
		// Scrape the first meter aggressively, including far-future
		// queries that would roll every bucket out if Rate advanced.
		scraped.Rate(now)
		scraped.Rate(now + 10*time.Second)
		scraped.Rate(now + time.Hour)
		for _, q := range times {
			if a, b := scraped.Rate(q), clean.Rate(q); a != b {
				t.Fatalf("after add %d: scraped.Rate(%v)=%v != clean %v", i, q, a, b)
			}
		}
	}
}

// TestRateMeterConcurrentReaders runs writers on one goroutine against
// telemetry readers on others; run with -race.
func TestRateMeterConcurrentReaders(t *testing.T) {
	m := NewRateMeter(time.Second, 10)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					m.Rate(time.Second)
					m.Total()
				}
			}
		}()
	}
	for i := 0; i < 5000; i++ {
		m.Add(time.Duration(i)*time.Millisecond, 1)
	}
	close(stop)
	wg.Wait()
	if m.Total() != 5000 {
		t.Fatalf("total = %v, want 5000", m.Total())
	}
}

// TestHistogramConcurrentQuantile races Adds against Quantile/Snapshot
// readers; run with -race. The cached sorted copy must never expose a
// partially sorted view.
func TestHistogramConcurrentQuantile(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					q := h.Quantile(0.99)
					if math.IsNaN(q) {
						t.Error("NaN quantile")
						return
					}
					s := h.Snapshot()
					for i := 1; i < len(s); i++ {
						if s[i] < s[i-1] {
							t.Error("snapshot not sorted")
							return
						}
					}
				}
			}
		}()
	}
	for i := 0; i < 5000; i++ {
		h.Add(float64(i % 97))
	}
	close(stop)
	wg.Wait()
	if h.Count() != 5000 {
		t.Fatalf("count = %d", h.Count())
	}
}

// TestHistogramQuantileDoesNotReorder confirms Quantile leaves the sample
// slice in insertion order (it sorts a cached copy), so code that mixes
// quantile queries with order-sensitive reads keeps seeing insertion order.
func TestHistogramQuantileDoesNotReorder(t *testing.T) {
	var h Histogram
	h.Add(3)
	h.Add(1)
	h.Add(2)
	if q := h.Quantile(0.5); q != 2 {
		t.Fatalf("median = %v", q)
	}
	if h.samples[0] != 3 || h.samples[1] != 1 || h.samples[2] != 2 {
		t.Fatalf("samples reordered: %v", h.samples)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	for _, v := range []float64{5, 1, 9, 3} {
		h.Add(v)
	}
	s := h.Snapshot()
	if s.Count() != 4 {
		t.Fatalf("snapshot count = %d", s.Count())
	}
	if q := s.Quantile(0); q != 1 {
		t.Fatalf("snapshot min = %v", q)
	}
	if q := s.Quantile(1); q != 9 {
		t.Fatalf("snapshot max = %v", q)
	}
	// The snapshot is immutable: later Adds don't change it.
	h.Add(100)
	if s.Count() != 4 || s.Quantile(1) != 9 {
		t.Fatal("snapshot mutated by later Add")
	}
	var empty Histogram
	if s := empty.Snapshot(); s.Count() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("empty snapshot not zero")
	}
}
