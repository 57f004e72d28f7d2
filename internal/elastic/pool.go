package elastic

import (
	"errors"

	"scotch/internal/scotch"
	"scotch/internal/sim"
)

// Pool is the resizable resource the balancer's pool rungs actuate. The
// Scotch adapter is VSwitchPool; tests substitute fakes.
type Pool interface {
	// Size returns the number of members currently taking new
	// assignments (draining members do not count).
	Size() int
	// Grow adds one member. An error means no growth happened (for
	// example, no standby capacity); the caller keeps its current size
	// and may retry later.
	Grow() error
	// Shrink begins gracefully removing one member. An error means no
	// shrink started.
	Shrink() error
}

// VSwitchPool adapts a running scotch.App to the Pool interface. Grow
// promotes the next standby vSwitch into the mesh live; Shrink drains
// the most recently grown member (LIFO, so the build-time floor is
// never drained). A drained member returns to the back of the standby
// list and may be grown again later — the overlay allocates fresh
// tunnel ports on re-add, so recycling is safe.
type VSwitchPool struct {
	app     *scotch.App
	standby []uint64
	grown   []uint64
}

// NewVSwitchPool builds a pool over app with the given standby vSwitch
// DPIDs. The standbys must exist in the topology and be connected to
// the controller, but not be mesh members; they join only when the
// pool grows.
func NewVSwitchPool(app *scotch.App, standby []uint64) *VSwitchPool {
	return &VSwitchPool{app: app, standby: append([]uint64(nil), standby...)}
}

// Size counts mesh members still taking new assignments; a draining
// member is already out of service, so it does not count.
func (p *VSwitchPool) Size() int {
	n := 0
	for _, m := range p.app.MeshMembers() {
		if !p.app.Draining(m) {
			n++
		}
	}
	return n
}

// Grow adds the first standby that the overlay accepts. A recycled
// member whose previous drain has not finished is rotated to the back
// of the list and the next candidate is tried.
func (p *VSwitchPool) Grow() error {
	for tries := len(p.standby); tries > 0; tries-- {
		dpid := p.standby[0]
		if err := p.app.AddVSwitch(dpid, false); err != nil {
			p.standby = append(p.standby[1:], dpid)
			continue
		}
		p.standby = p.standby[1:]
		p.grown = append(p.grown, dpid)
		return nil
	}
	return errors.New("elastic: no standby vswitch available")
}

// Shrink starts draining the most recently grown member and returns it
// to the standby list for future growth.
func (p *VSwitchPool) Shrink() error {
	for i := len(p.grown) - 1; i >= 0; i-- {
		dpid := p.grown[i]
		if err := p.app.DrainVSwitch(dpid); err != nil {
			continue
		}
		p.grown = append(p.grown[:i], p.grown[i+1:]...)
		p.standby = append(p.standby, dpid)
		return nil
	}
	return errors.New("elastic: no grown member can drain")
}

// OverlayRate returns a load signal measuring the overlay-routed flow
// rate per pool member: the increase in app.Stats.OverlayRouted since
// the previous call, per second, divided by the pool size. This is the
// signal the balancer's pool rungs scale on — it is exactly the work the
// mesh absorbs for the control plane, so it rises with the attack and
// falls when the attack stops or capacity is added. Each call starts a
// new window, so the signal must be sampled by exactly one caller.
func OverlayRate(eng *sim.Engine, app *scotch.App, pool Pool) func() float64 {
	var prevCount uint64
	var prevAt sim.Time
	return func() float64 {
		now := eng.Now()
		count := app.Stats.OverlayRouted
		dt := (now - prevAt).Seconds()
		d := count - prevCount
		prevCount = count
		prevAt = now
		if dt <= 0 {
			return 0
		}
		size := pool.Size()
		if size < 1 {
			size = 1
		}
		return float64(d) / dt / float64(size)
	}
}
