package elastic_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"scotch/internal/balance"
	"scotch/internal/elastic"
	"scotch/internal/obs"
	"scotch/internal/sim"
	"scotch/internal/telemetry"
)

// These tests drive a Pool through the wiring the experiments use: the
// load signal and pool size are registered with obs.WatchPool on an
// observatory that is not started, and the joint balancer samples it
// once per tick. The balancer's policy is unit-tested in
// internal/balance against a scripted view; here the view is rendered
// by the observatory from the live pool.

// fakePool is a scripted Pool: instant resizes, optional growth failure.
type fakePool struct {
	size    int
	growErr error
	grows   int
	shrinks int
}

var _ elastic.Pool = (*fakePool)(nil)

func (p *fakePool) Size() int { return p.size }

func (p *fakePool) Grow() error {
	if p.growErr != nil {
		return p.growErr
	}
	p.grows++
	p.size++
	return nil
}

func (p *fakePool) Shrink() error {
	p.shrinks++
	p.size--
	return nil
}

// scriptedLoad replays a load trajectory, one value per sample, holding
// the last value once exhausted.
func scriptedLoad(vals ...float64) func() float64 {
	i := 0
	return func() float64 {
		v := vals[i]
		if i < len(vals)-1 {
			i++
		}
		return v
	}
}

// testCfg is the default policy with a small, fast pool band: a 100ms
// tick, grow above 100 after 2 hot ticks, drain below 20 after 3 cold
// ticks, 250ms between resizes, and a pool of 1 to 3 members.
func testCfg() balance.Config {
	cfg := balance.DefaultConfig()
	cfg.Interval = 100 * time.Millisecond
	cfg.PoolGrowLoad = 100
	cfg.PoolDrainLoad = 20
	cfg.PoolUpChecks = 2
	cfg.PoolDownChecks = 3
	cfg.PoolCooldown = 250 * time.Millisecond
	cfg.MinPool = 1
	cfg.MaxPool = 3
	return cfg
}

// startLoop wires pool and load into an unstarted observatory and starts
// a balancer that samples it on each tick.
func startLoop(eng *sim.Engine, cfg balance.Config, pool elastic.Pool, load func() float64) (*balance.Balancer, *obs.Observatory) {
	o := obs.New(eng, obs.Config{})
	o.WatchPool(pool, load)
	view := func() *obs.ClusterView {
		o.Sample()
		return o.Snapshot()
	}
	return balance.New(eng, cfg, view, balance.Actuators{Pool: pool}).Start(), o
}

func TestHysteresisGrowAndShrink(t *testing.T) {
	eng := sim.New(1)
	pool := &fakePool{size: 1}
	// Two hot samples grow; a single hot sample must not. Then sustained
	// cold samples shrink back, each shrink gated by the cold streak and
	// the cooldown.
	load := scriptedLoad(
		150, 50, // broken streak: no grow
		150, 150, // grow to 2
		150, 150, 150, // grow to 3 once cooldown passes
		10, 10, 10, 10, 10, 10, 10, 10, 10, 10, // shrink to 2, then 1
	)
	b, _ := startLoop(eng, testCfg(), pool, load)
	eng.RunUntil(3 * time.Second)
	b.Stop()

	if pool.grows != 2 {
		t.Fatalf("grows = %d, want 2", pool.grows)
	}
	if pool.shrinks != 2 {
		t.Fatalf("shrinks = %d, want 2", pool.shrinks)
	}
	if pool.size != 1 {
		t.Fatalf("final size = %d, want MinPool", pool.size)
	}
	if b.Stats.Grows != 2 || b.Stats.Drains != 2 {
		t.Fatalf("stats = %+v", b.Stats)
	}
}

func TestSingleSpikeDoesNotGrow(t *testing.T) {
	eng := sim.New(1)
	pool := &fakePool{size: 1}
	b, _ := startLoop(eng, testCfg(), pool, scriptedLoad(150, 0, 150, 0, 150, 0))
	eng.RunUntil(time.Second)
	b.Stop()
	if pool.grows != 0 {
		t.Fatalf("grew on alternating spikes (grows=%d) — PoolUpChecks hysteresis broken", pool.grows)
	}
}

func TestCooldownSpacesResizes(t *testing.T) {
	eng := sim.New(1)
	pool := &fakePool{size: 1}
	b, _ := startLoop(eng, testCfg(), pool, scriptedLoad(150))
	// Load is pegged high. With a 100ms tick and 250ms cooldown the pool
	// may grow at most once per 3 ticks: by 650ms (6 ticks) exactly two
	// resizes fit (t=200ms and t=500ms).
	eng.RunUntil(650 * time.Millisecond)
	b.Stop()
	if pool.grows != 2 {
		t.Fatalf("grows = %d in 650ms, want 2 (cooldown not enforced)", pool.grows)
	}
	log := b.Log()
	if len(log) != 2 || log[0].At != sim.Time(200*time.Millisecond) || log[1].At != sim.Time(500*time.Millisecond) {
		t.Fatalf("grow log = %+v, want grows at 200ms and 500ms", log)
	}
}

func TestBoundsRespected(t *testing.T) {
	eng := sim.New(1)
	pool := &fakePool{size: 1}
	b, _ := startLoop(eng, testCfg(), pool, scriptedLoad(500))
	eng.RunUntil(10 * time.Second)
	b.Stop()
	if pool.size != 3 {
		t.Fatalf("size = %d under sustained load, want MaxPool=3", pool.size)
	}
	if b.Stats.Bounds == 0 {
		t.Fatalf("sustained load at MaxPool recorded no bounds suppression: %+v", b.Stats)
	}

	eng2 := sim.New(1)
	pool2 := &fakePool{size: 1}
	b2, _ := startLoop(eng2, testCfg(), pool2, scriptedLoad(0))
	eng2.RunUntil(10 * time.Second)
	b2.Stop()
	if pool2.shrinks != 0 || pool2.size != 1 {
		t.Fatalf("shrank below MinPool (size=%d)", pool2.size)
	}
}

func TestGrowFailureRetries(t *testing.T) {
	eng := sim.New(1)
	pool := &fakePool{size: 1, growErr: errors.New("no standby")}
	b, _ := startLoop(eng, testCfg(), pool, scriptedLoad(500))
	eng.RunUntil(time.Second)
	if pool.grows != 0 || b.Stats.Grows != 0 {
		t.Fatal("counted a failed grow")
	}
	if b.Stats.Errors == 0 {
		t.Fatalf("stats = %+v, want failed grows counted as errors", b.Stats)
	}
	// Capacity appears: the sustained streak must convert to a grow on
	// the next tick without restarting from zero.
	pool.growErr = nil
	eng.RunUntil(1100 * time.Millisecond)
	b.Stop()
	if pool.grows != 1 {
		t.Fatalf("grows = %d after capacity appeared, want 1", pool.grows)
	}
	log := b.Log()
	if last := log[len(log)-1]; !last.Applied || last.At != sim.Time(1100*time.Millisecond) {
		t.Fatalf("last decision = %+v, want an applied grow at 1100ms", last)
	}
}

func TestMetricsAndMarks(t *testing.T) {
	eng := sim.New(1)
	pool := &fakePool{size: 1}
	o := obs.New(eng, obs.Config{})
	o.WatchPool(pool, scriptedLoad(150, 150, 150, 0, 0, 0, 0, 0, 0))
	b := balance.New(eng, testCfg(), func() *obs.ClusterView {
		o.Sample()
		return o.Snapshot()
	}, balance.Actuators{Pool: pool})
	tr := telemetry.NewTracer()
	b.SetTracer(tr)
	reg := telemetry.NewRegistry()
	b.BindMetrics(reg)
	b.Start()
	eng.RunUntil(2 * time.Second)
	b.Stop()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`scotch_balance_actions_total{action="grow-pool"} 1`,
		`scotch_balance_actions_total{action="drain-pool"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
	// The observatory's pool_size series follows the pool back to 1.
	if sig := balance.ExtractSignals(o.Snapshot()); !sig.HasPool || sig.PoolSize != 1 {
		t.Errorf("view pool signals = %+v, want pool_size 1", sig)
	}
	var grow, drain bool
	for _, m := range tr.Marks() {
		if strings.HasPrefix(m.Name, "balance:grow-pool") {
			grow = true
		}
		if strings.HasPrefix(m.Name, "balance:drain-pool") {
			drain = true
		}
	}
	if !grow || !drain {
		t.Fatalf("missing resize marks (grow=%v drain=%v)", grow, drain)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.New(1)
	bad := []func(*balance.Config){
		func(c *balance.Config) { c.Interval = 0 },
		func(c *balance.Config) { c.PoolDrainLoad = c.PoolGrowLoad },
		func(c *balance.Config) { c.PoolUpChecks = 0 },
		func(c *balance.Config) { c.MinPool = 0 },
		func(c *balance.Config) { c.MaxPool = c.MinPool - 1 },
	}
	for i, mutate := range bad {
		cfg := testCfg()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config mutation %d not rejected", i)
				}
			}()
			startLoop(eng, cfg, &fakePool{size: 1}, scriptedLoad(0))
		}()
	}
}
