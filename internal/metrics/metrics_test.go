package metrics

import (
	"math"
	"testing"
	"time"
)

func TestRateMeterSteadyRate(t *testing.T) {
	m := NewRateMeter(time.Second, 10)
	// 200 events/s for 2 seconds.
	for i := 0; i < 400; i++ {
		m.Add(time.Duration(i)*5*time.Millisecond, 1)
	}
	got := m.Rate(2 * time.Second)
	if math.Abs(got-200) > 20 {
		t.Fatalf("Rate = %v, want ~200", got)
	}
}

func TestRateMeterDecays(t *testing.T) {
	m := NewRateMeter(time.Second, 10)
	m.Add(0, 100)
	if r := m.Rate(100 * time.Millisecond); r < 90 {
		t.Fatalf("fresh rate = %v", r)
	}
	if r := m.Rate(5 * time.Second); r != 0 {
		t.Fatalf("stale rate = %v, want 0", r)
	}
}

func TestRateMeterPartialWindow(t *testing.T) {
	m := NewRateMeter(time.Second, 4)
	m.Add(0, 50)
	m.Add(600*time.Millisecond, 50)
	// Just before t=1s the window still covers both bursts; by 1.3s the
	// first bucket has rolled out.
	if r := m.Rate(999 * time.Millisecond); math.Abs(r-100) > 1 {
		t.Fatalf("rate = %v, want 100", r)
	}
	if r := m.Rate(1300 * time.Millisecond); math.Abs(r-50) > 1 {
		t.Fatalf("rate after roll-out = %v, want 50", r)
	}
}

func TestRateMeterWindowWrapAfterLongIdle(t *testing.T) {
	// An idle gap far longer than the window must fully reset the buckets
	// (the advance() shift exceeds the bucket count), so old events cannot
	// leak into the new window.
	m := NewRateMeter(time.Second, 10)
	m.Add(0, 500)
	m.Add(time.Hour, 10)
	if r := m.Rate(time.Hour); math.Abs(r-10) > 1e-9 {
		t.Fatalf("rate after hour-long idle = %v, want 10", r)
	}
	// The next event after the wrap lands in the right bucket relative to
	// the rebased window.
	m.Add(time.Hour+500*time.Millisecond, 10)
	if r := m.Rate(time.Hour + 500*time.Millisecond); math.Abs(r-20) > 1e-9 {
		t.Fatalf("rate after post-wrap add = %v, want 20", r)
	}
}

func TestRateMeterZeroEventWindow(t *testing.T) {
	// Querying a window that never saw an event reports zero, both on a
	// fresh meter and after prior activity has rolled out bucket by bucket.
	m := NewRateMeter(time.Second, 10)
	if r := m.Rate(0); r != 0 {
		t.Fatalf("fresh meter rate = %v, want 0", r)
	}
	if r := m.Rate(10 * time.Second); r != 0 {
		t.Fatalf("idle meter rate = %v, want 0", r)
	}
	m.Add(10*time.Second, 7)
	// Walk the window forward one bucket at a time past the event: a
	// shift < len(buckets) each step exercises the copy path, and the
	// rate must reach exactly zero once the event ages out.
	for i := 1; i <= 12; i++ {
		now := 10*time.Second + time.Duration(i)*100*time.Millisecond
		r := m.Rate(now)
		if i >= 10 && r != 0 {
			t.Fatalf("rate at +%d00ms = %v, want 0 after roll-out", i, r)
		}
		if i < 10 && math.Abs(r-7) > 1e-9 {
			t.Fatalf("rate at +%d00ms = %v, want 7 inside window", i, r)
		}
	}
}

func TestRateMeterTotalLifetime(t *testing.T) {
	// Total is a lifetime counter: unaffected by window roll-out or the
	// full reset after a long idle gap.
	m := NewRateMeter(time.Second, 10)
	if m.Total() != 0 {
		t.Fatalf("fresh total = %v", m.Total())
	}
	m.Add(0, 3)
	m.Add(500*time.Millisecond, 4)
	m.Add(time.Hour, 5)
	if m.Total() != 12 {
		t.Fatalf("total = %v, want 12", m.Total())
	}
	if r := m.Rate(time.Hour); math.Abs(r-5) > 1e-9 {
		t.Fatalf("windowed rate = %v, want 5", r)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if m := h.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
	if q := h.Quantile(0.5); math.Abs(q-50.5) > 1 {
		t.Fatalf("p50 = %v", q)
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("p0 = %v", q)
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("p100 = %v", q)
	}
	if q := h.Quantile(0.99); q < 98 || q > 100 {
		t.Fatalf("p99 = %v", q)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zero")
	}
}

func TestHistogramAddAfterQuantile(t *testing.T) {
	var h Histogram
	h.Add(10)
	_ = h.Quantile(0.5)
	h.Add(1)
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("p0 after re-add = %v", q)
	}
}
