package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"scotch/internal/metrics"
)

// Registry is a goroutine-safe collection of named metrics, scraped in
// Prometheus text exposition format. Series names may carry a label block
// (`name{label="v"}`); series of the same family share one # TYPE line.
// Keys are canonicalized on every lookup — labels sorted by name, values
// escaped per the exposition format — so the legacy label-in-name
// spelling remains a readable alias for real label pairs (see
// FormatSeries/ParseSeries).
//
// Instrument handles (Counter, Gauge, metrics.BucketHistogram) are
// resolved once at wiring time and then updated lock-free with atomics,
// so instrumented hot paths never contend on the registry map. All
// lookup methods are nil-receiver safe and return nil handles, whose
// update methods are in turn nil-safe: code instruments unconditionally
// and a disabled registry costs one branch.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	counterFns map[string]func() uint64
	gauges     map[string]*Gauge
	gaugeFns   map[string]func() float64
	hists      map[string]*metrics.BucketHistogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		counterFns: make(map[string]func() uint64),
		gauges:     make(map[string]*Gauge),
		gaugeFns:   make(map[string]func() float64),
		hists:      make(map[string]*metrics.BucketHistogram),
	}
}

// Labels formats key/value pairs as a Prometheus label block, e.g.
// Labels("dpid", "7") == `{dpid="7"}`. Values are escaped per the text
// exposition format (see EscapeLabelValue). An empty argument list
// yields "".
func Labels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one. Nil-safe.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add increases the counter by n. Nil-safe.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float value (atomically stored as float bits).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add increments the gauge by d (compare-and-swap loop). Nil-safe.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets are the default histogram bounds (seconds), spanning the
// microsecond-to-second control-path latencies this repository measures.
var DefBuckets = []float64{
	1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1, 5,
}

// Counter returns (creating if needed) the counter with the given series
// name. Nil-safe: a nil registry returns a nil (no-op) handle. The key is
// canonicalized (labels sorted, values escaped), so older label-in-name
// spellings of the same series alias the same counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	name = canonicalKey(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge with the given series name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	name = canonicalKey(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// CounterFunc registers a monotonic counter evaluated at scrape time, for
// subsystems that already keep their own atomic counters. The function must
// be safe to call from the scraping goroutine.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if r == nil || fn == nil {
		return
	}
	name = canonicalKey(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counterFns[name] = fn
}

// GaugeFunc registers a gauge evaluated at scrape time. The function must
// be safe to call from the scraping goroutine; simulation-side bindings
// are scraped only when their engine is idle.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	name = canonicalKey(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// Histogram returns (creating if needed) a histogram with the given bounds
// (DefBuckets when bounds is nil). Bounds are fixed at first creation.
func (r *Registry) Histogram(name string, bounds []float64) *metrics.BucketHistogram {
	if r == nil {
		return nil
	}
	name = canonicalKey(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if len(bounds) == 0 {
			bounds = DefBuckets
		}
		h = metrics.NewBucketHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// family strips the label block from a series name.
func family(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// labelsOf returns the label block ("" or "{...}") of a series name.
func labelsOf(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[i:]
	}
	return ""
}

// WritePrometheus scrapes every metric in Prometheus text exposition
// format, sorted by series name so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type series struct {
		name string
		typ  string
		emit func(io.Writer, string) error
	}
	r.mu.RLock()
	all := make([]series, 0, len(r.counters)+len(r.counterFns)+len(r.gauges)+len(r.gaugeFns)+len(r.hists))
	for name, c := range r.counters {
		c := c
		all = append(all, series{name, "counter", func(w io.Writer, n string) error {
			_, err := fmt.Fprintf(w, "%s %d\n", n, c.Value())
			return err
		}})
	}
	for name, fn := range r.counterFns {
		fn := fn
		all = append(all, series{name, "counter", func(w io.Writer, n string) error {
			_, err := fmt.Fprintf(w, "%s %d\n", n, fn())
			return err
		}})
	}
	for name, g := range r.gauges {
		g := g
		all = append(all, series{name, "gauge", func(w io.Writer, n string) error {
			_, err := fmt.Fprintf(w, "%s %v\n", n, g.Value())
			return err
		}})
	}
	for name, fn := range r.gaugeFns {
		fn := fn
		all = append(all, series{name, "gauge", func(w io.Writer, n string) error {
			_, err := fmt.Fprintf(w, "%s %v\n", n, fn())
			return err
		}})
	}
	for name, h := range r.hists {
		h := h
		all = append(all, series{name, "histogram", func(w io.Writer, n string) error {
			fam, lbl := family(n), labelsOf(n)
			bounds, counts := h.Bounds(), h.Counts()
			var cum uint64
			for i, b := range bounds {
				cum += counts[i]
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fam, mergeLabels(lbl, fmt.Sprintf("le=%q", fmtFloat(b))), cum); err != nil {
					return err
				}
			}
			cum += counts[len(bounds)]
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fam, mergeLabels(lbl, `le="+Inf"`), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %v\n", fam, lbl, h.Sum()); err != nil {
				return err
			}
			_, err := fmt.Fprintf(w, "%s_count%s %d\n", fam, lbl, h.Count())
			return err
		}})
	}
	r.mu.RUnlock()

	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	seenType := make(map[string]bool)
	for _, s := range all {
		fam := family(s.name)
		if !seenType[fam] {
			seenType[fam] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, s.typ); err != nil {
				return err
			}
		}
		if err := s.emit(w, s.name); err != nil {
			return err
		}
	}
	return nil
}

// mergeLabels combines an existing label block with one extra label.
func mergeLabels(block, extra string) string {
	if block == "" {
		return "{" + extra + "}"
	}
	return block[:len(block)-1] + "," + extra + "}"
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
