package obs

import (
	"scotch/internal/sim"
)

// ClusterView is one consistent, point-in-time picture of the whole
// deployment: every sampled component series (summarized over the
// retained window), per-tenant latency quantiles, and the current SLO
// burn state. It is the observatory's API surface for controllers — the
// joint-elasticity balancer (internal/balance) consumes exactly this
// struct — and the payload /statusz serves. All fields are plain data:
// a view never aliases live observatory state.
type ClusterView struct {
	// At is the simulation time of the newest sample.
	At sim.Time `json:"at"`
	// Components holds one entry per observed subsystem, sorted by name.
	Components []ComponentView `json:"components"`
	// Tenants holds lifetime per-tenant latency quantiles, sorted by
	// tenant name (empty without a WatchLatency tracker).
	Tenants []TenantView `json:"tenants,omitempty"`
	// SLOs holds the current verdict and burn rates of every configured
	// SLO, in configuration order.
	SLOs []SLOView `json:"slos,omitempty"`
}

// ComponentView is one subsystem's sampled series.
type ComponentView struct {
	Name   string       `json:"name"`
	Series []SeriesView `json:"series"`
}

// SeriesView summarizes one ring series over its retained window.
type SeriesView struct {
	Name    string  `json:"name"`
	Summary Summary `json:"summary"`
}

// TenantView is one tenant's lifetime flow-setup latency distribution.
type TenantView struct {
	Tenant string  `json:"tenant"`
	Flows  uint64  `json:"flows"`
	P50    float64 `json:"p50_seconds"`
	P99    float64 `json:"p99_seconds"`
}

// SLOView is one SLO's current evaluation state.
type SLOView struct {
	Name     string  `json:"name"`
	Tenant   string  `json:"tenant"`
	Quantile float64 `json:"quantile"`
	// TargetSeconds is the latency objective in seconds.
	TargetSeconds float64 `json:"target_seconds"`
	// WindowQuantileSeconds is the quantile over the long window at the
	// newest sample — the "is it slow right now" number.
	WindowQuantileSeconds float64 `json:"window_quantile_seconds"`
	BurnShort             float64 `json:"burn_short"`
	BurnLong              float64 `json:"burn_long"`
	Verdict               Verdict `json:"verdict"`
	// Transitions is the verdict history so far.
	Transitions []Transition `json:"transitions,omitempty"`
	// Samples counts evaluation ticks with a resolved tenant histogram.
	Samples uint64 `json:"samples"`
}

// Component returns the named component view, or nil when the view (or
// the component) is absent. Views are plain data, so the result may be
// retained freely.
func (v *ClusterView) Component(name string) *ComponentView {
	if v == nil {
		return nil
	}
	for i := range v.Components {
		if v.Components[i].Name == name {
			return &v.Components[i]
		}
	}
	return nil
}

// Last returns the newest sampled value of the named series, with
// ok=false when the component is nil, the series is unknown, or it has
// no samples yet. This is the accessor signal extractors (the joint
// balancer) use: policy reads the freshest point, not the window stats.
func (cv *ComponentView) Last(name string) (v float64, ok bool) {
	if cv == nil {
		return 0, false
	}
	for i := range cv.Series {
		if cv.Series[i].Name == name && cv.Series[i].Summary.N > 0 {
			return cv.Series[i].Summary.Last, true
		}
	}
	return 0, false
}

// Snapshot assembles a ClusterView from the current ring and SLO state.
// Safe to call from any goroutine (e.g. a live /statusz handler) while
// the simulation samples; returns an empty view for a nil observatory.
func (o *Observatory) Snapshot() *ClusterView {
	v := &ClusterView{}
	if o == nil {
		return v
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, c := range o.sortedComponents() {
		cv := ComponentView{Name: c.name}
		for _, s := range c.series {
			if p, ok := s.ring.Last(); ok && p.T > v.At {
				v.At = p.T
			}
			cv.Series = append(cv.Series, SeriesView{
				Name:    s.name,
				Summary: Summarize(s.ring.Points()),
			})
		}
		v.Components = append(v.Components, cv)
	}
	if o.tracker != nil {
		for _, name := range o.tracker.TenantNames() {
			h := o.tracker.Tenant(name)
			v.Tenants = append(v.Tenants, TenantView{
				Tenant: name,
				Flows:  h.Count(),
				P50:    h.Quantile(0.5),
				P99:    h.Quantile(0.99),
			})
		}
	}
	for _, s := range o.slos {
		sv := SLOView{
			Name:          s.def.Name,
			Tenant:        s.def.Tenant,
			Quantile:      s.def.Quantile,
			TargetSeconds: s.def.Target.Seconds(),
			Verdict:       s.verdict,
			Transitions:   append([]Transition(nil), s.transitions...),
			Samples:       s.samples,
		}
		if p, ok := s.burnShort.Last(); ok {
			sv.BurnShort = p.V
		}
		if p, ok := s.burnLong.Last(); ok {
			sv.BurnLong = p.V
		}
		if p, ok := s.windowQ.Last(); ok {
			sv.WindowQuantileSeconds = p.V
		}
		v.SLOs = append(v.SLOs, sv)
	}
	return v
}
