package elastic

import (
	"fmt"
	"time"

	"scotch/internal/sim"
	"scotch/internal/telemetry"
)

// Pool is the resizable resource the autoscaler manages. The Scotch
// adapter is VSwitchPool; tests substitute fakes.
type Pool interface {
	// Size returns the number of members currently taking new
	// assignments (draining members do not count).
	Size() int
	// Grow adds one member. An error means no growth happened (for
	// example, no standby capacity); the autoscaler stays at its
	// current size and may retry on a later evaluation.
	Grow() error
	// Shrink begins gracefully removing one member. An error means no
	// shrink started.
	Shrink() error
}

// LoadFunc samples the scalar load signal driving scale decisions, in
// whatever unit the Config thresholds use. It is called once per
// evaluation tick, on the simulation clock.
type LoadFunc func() float64

// Config tunes the autoscaler's control loop.
type Config struct {
	// EvalInterval is the spacing of load evaluations.
	EvalInterval time.Duration
	// ScaleUpLoad is the load at or above which an evaluation counts
	// toward growing the pool.
	ScaleUpLoad float64
	// ScaleDownLoad is the load at or below which an evaluation counts
	// toward shrinking the pool. Keeping it well under ScaleUpLoad is
	// what makes the hysteresis band.
	ScaleDownLoad float64
	// UpChecks is how many consecutive over-threshold evaluations are
	// required before a grow. DownChecks is the same for shrink.
	UpChecks   int
	DownChecks int
	// Cooldown is the minimum time between resizes, so one burst cannot
	// thrash the pool.
	Cooldown time.Duration
	// MinPool and MaxPool bound the pool size the autoscaler will
	// request. MinPool is the floor the pool drains back to when load
	// subsides.
	MinPool int
	MaxPool int
}

// DefaultConfig returns the control-loop settings used by the elastic
// experiment: half-second evaluations, a wide hysteresis band, and a
// cooldown long enough for a resize's effect to show up in the signal.
func DefaultConfig() Config {
	return Config{
		EvalInterval:  500 * time.Millisecond,
		ScaleUpLoad:   150,
		ScaleDownLoad: 30,
		UpChecks:      2,
		DownChecks:    3,
		Cooldown:      1500 * time.Millisecond,
		MinPool:       1,
		MaxPool:       4,
	}
}

// Stats counts autoscaler activity.
type Stats struct {
	Evals uint64 // load evaluations performed
	Ups   uint64 // successful grows
	Downs uint64 // successful shrink starts
}

// Autoscaler runs the hysteresis control loop over a Pool.
type Autoscaler struct {
	eng    *sim.Engine
	cfg    Config
	pool   Pool
	load   LoadFunc
	tracer *telemetry.Tracer
	ticker *sim.Ticker

	upStreak   int
	downStreak int
	lastResize sim.Time
	resized    bool
	lastLoad   float64

	// Stats is read-only for callers.
	Stats Stats
}

// New validates cfg and binds an autoscaler to a pool and load signal.
// It panics on a malformed config: these are programming errors, not
// runtime conditions.
func New(eng *sim.Engine, cfg Config, pool Pool, load LoadFunc) *Autoscaler {
	if cfg.EvalInterval <= 0 {
		panic("elastic: non-positive EvalInterval")
	}
	if cfg.ScaleDownLoad >= cfg.ScaleUpLoad {
		panic("elastic: ScaleDownLoad must be below ScaleUpLoad")
	}
	if cfg.UpChecks < 1 || cfg.DownChecks < 1 {
		panic("elastic: UpChecks and DownChecks must be at least 1")
	}
	if cfg.MinPool < 1 || cfg.MaxPool < cfg.MinPool {
		panic("elastic: need 1 <= MinPool <= MaxPool")
	}
	return &Autoscaler{eng: eng, cfg: cfg, pool: pool, load: load}
}

// SetTracer attaches a tracer; each resize emits an "elastic:grow" or
// "elastic:drain" mark. A nil tracer disables marks.
func (a *Autoscaler) SetTracer(t *telemetry.Tracer) { a.tracer = t }

// BindMetrics registers the autoscaler's gauges and counters:
// scotch_elastic_pool_size and scotch_elastic_resize_total{dir}.
func (a *Autoscaler) BindMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("scotch_elastic_pool_size", func() float64 { return float64(a.pool.Size()) })
	reg.CounterFunc("scotch_elastic_resize_total"+telemetry.Labels("dir", "up"),
		func() uint64 { return a.Stats.Ups })
	reg.CounterFunc("scotch_elastic_resize_total"+telemetry.Labels("dir", "down"),
		func() uint64 { return a.Stats.Downs })
}

// Start begins evaluating the load every EvalInterval. It returns the
// autoscaler for chaining and panics if called twice.
func (a *Autoscaler) Start() *Autoscaler {
	if a.ticker != nil {
		panic("elastic: Start called twice")
	}
	a.ticker = a.eng.Every(a.cfg.EvalInterval, a.eval)
	return a
}

// LastLoad returns the load signal sampled by the most recent control
// tick (0 before the first eval). The observatory reads this instead of
// re-invoking the LoadFunc so observation never double-samples a signal
// whose computation has side effects.
func (a *Autoscaler) LastLoad() float64 { return a.lastLoad }

// Stop halts the control loop. In-flight drains keep running to
// completion in the overlay; Stop only stops new decisions.
func (a *Autoscaler) Stop() {
	if a.ticker != nil {
		a.ticker.Stop()
	}
}

// eval is one control-loop tick: sample the load, update the hysteresis
// streaks, and resize if a streak is complete, the bound allows it, and
// the cooldown has passed.
func (a *Autoscaler) eval() {
	a.Stats.Evals++
	l := a.load()
	a.lastLoad = l
	size := a.pool.Size()
	if l >= a.cfg.ScaleUpLoad {
		a.upStreak++
	} else {
		a.upStreak = 0
	}
	if l <= a.cfg.ScaleDownLoad {
		a.downStreak++
	} else {
		a.downStreak = 0
	}
	now := a.eng.Now()
	if a.resized && now-a.lastResize < sim.Time(a.cfg.Cooldown) {
		return
	}
	switch {
	case a.upStreak >= a.cfg.UpChecks && size < a.cfg.MaxPool:
		if err := a.pool.Grow(); err != nil {
			return // no standby free: keep the streak, retry next tick
		}
		a.Stats.Ups++
		a.noteResize(now, "elastic:grow")
	case a.downStreak >= a.cfg.DownChecks && size > a.cfg.MinPool:
		if err := a.pool.Shrink(); err != nil {
			return
		}
		a.Stats.Downs++
		a.noteResize(now, "elastic:drain")
	}
}

func (a *Autoscaler) noteResize(now sim.Time, kind string) {
	a.lastResize = now
	a.resized = true
	a.upStreak = 0
	a.downStreak = 0
	if a.tracer != nil {
		a.tracer.Mark(fmt.Sprintf("%s size=%d", kind, a.pool.Size()), now)
	}
}
