package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"scotch/internal/capture"
	"scotch/internal/controller"
	"scotch/internal/device"
	"scotch/internal/flowtable"
	"scotch/internal/netaddr"
	"scotch/internal/scotch"
	"scotch/internal/sim"
	"scotch/internal/topo"
	"scotch/internal/workload"
)

// simWorld is one built simulation: the engine, the fabric, and the
// handles the benchmark reads outcomes from.
type simWorld struct {
	eng     *sim.Engine
	net     *topo.Network
	cap     *capture.Capture
	app     *scotch.App
	classes []string
	// stop halts the traffic generators at trafficEnd; the run continues
	// to end so rules can expire.
	stop       func()
	trafficEnd sim.Time
	end        sim.Time
	// paths are the (switch, destination) queries topo.path_us times.
	paths []pathQuery
	// clock times each generated flow in host time.
	clock *flowClock
	// drains marks a workload whose tail must leave every table empty and
	// the overlay withdrawn.
	drains bool
}

type pathQuery struct {
	from uint64
	dst  netaddr.IPv4
}

// simSpec builds one simulated workload. root is the parent span of the
// set-up spans; tr may be nil.
type simSpec func(seed int64, tr *tracer, root uint64) (*simWorld, error)

var simSpecs = map[string]simSpec{
	"ddos-overlay":  buildDDoSOverlay,
	"fattree-crowd": buildFatTreeCrowd,
}

// buildDDoSOverlay is the paper's testbed (§6): one Pica8 edge switch
// protected by a mesh of four OVS vSwitches, a spoofed-source attack of
// 2500 flows/s from two ports beside a 100 flows/s legitimate client for
// 12 s, then a 28 s quiet tail, longer than the 10 s rule idle timeout
// plus the paced install backlog, so the overlay withdraws and every
// table drains by expiry.
func buildDDoSOverlay(seed int64, tr *tracer, root uint64) (*simWorld, error) {
	const vswitches, servers = 4, 4
	t0 := time.Now()
	eng := sim.New(seed)
	net := topo.New(eng)
	link := device.LinkConfig{Delay: 50 * time.Microsecond, RateBps: 1e9}
	edge := net.AddSwitch("edge", device.Pica8Profile())
	var attackers []*device.Host
	var protect []uint32
	for i := 0; i < 2; i++ {
		h := net.AddHost(fmt.Sprintf("attacker%d", i), netaddr.MakeIPv4(10, 0, 0, byte(66+i)))
		protect = append(protect, net.AttachHost(h, edge, link))
		attackers = append(attackers, h)
	}
	client := net.AddHost("client", netaddr.MakeIPv4(10, 0, 0, 10))
	protect = append(protect, net.AttachHost(client, edge, link))
	var srv []*device.Host
	for i := 0; i < servers; i++ {
		h := net.AddHost(fmt.Sprintf("server%d", i), netaddr.MakeIPv4(10, 0, 1, byte(i+1)))
		net.AttachHost(h, edge, link)
		srv = append(srv, h)
	}
	var vs []*device.Switch
	for i := 0; i < vswitches; i++ {
		v := net.AddSwitch(fmt.Sprintf("vs%d", i), device.OVSProfile())
		net.LinkSwitches(edge, v, link)
		vs = append(vs, v)
	}
	t1 := time.Now()
	tr.span("topo.New+build", "topo", root, -1, t0, t1)

	app := scotch.New(controller.New(eng, net), scotch.DefaultConfig())
	for _, v := range vs {
		if err := app.AddVSwitch(v.DPID, false); err != nil {
			return nil, err
		}
	}
	for i, h := range srv {
		app.AssignHost(h.IP, vs[i%vswitches].DPID, vs[(i+1)%vswitches].DPID)
	}
	app.Protect(edge.DPID, protect...)
	app.C.ConnectAll()
	if err := app.Build(); err != nil {
		return nil, err
	}
	t2 := time.Now()
	tr.span("scotch.New+Build", "scotch", root, -1, t1, t2)

	cp := capture.New(eng)
	for _, h := range srv {
		cp.Attach(h)
	}
	var atkSources []*workload.Emitter
	for _, h := range attackers {
		atkSources = append(atkSources, workload.NewEmitter(eng, h, cp))
	}
	spoof := netaddr.MustParsePrefix("172.16.0.0/12")
	sc := workload.NewScenario(eng, seed)
	sc.Add(workload.TenantSpec{Name: "attack", Curve: workload.ConstantCurve(2500),
		Sources: atkSources, Dsts: []netaddr.IPv4{srv[0].IP}, Spoof: &spoof})
	sc.Add(workload.TenantSpec{Name: "client", Curve: workload.ConstantCurve(100),
		Size: workload.FixedSampler{Pkts: 3}, PktIval: 5 * time.Millisecond,
		Sources: []*workload.Emitter{workload.NewEmitter(eng, client, cp)},
		Dsts:    []netaddr.IPv4{srv[1].IP, srv[2].IP, srv[3].IP}})
	clock := newFlowClock(sc, cp)
	sc.Start()
	tr.span("capture+workload.Start", "workload", root, -1, t2, time.Now())

	var paths []pathQuery
	for _, h := range srv {
		paths = append(paths, pathQuery{edge.DPID, h.IP})
		for _, v := range vs {
			paths = append(paths, pathQuery{v.DPID, h.IP})
		}
	}
	return &simWorld{
		eng: eng, net: net, cap: cp, app: app,
		classes:    []string{"attack", "client"},
		stop:       sc.Stop,
		clock:      clock,
		trafficEnd: 12 * time.Second,
		end:        40 * time.Second,
		paths:      paths,
		drains:     true,
	}, nil
}

// buildFatTreeCrowd is a k=12 fat-tree (180 switches, one host per edge)
// under a Scotch deployment: an all-to-all base tenant of multi-packet
// Pareto flows plus a trapezoid flash crowd into pod 0.
func buildFatTreeCrowd(seed int64, tr *tracer, root uint64) (*simWorld, error) {
	const k = 12
	t0 := time.Now()
	eng := sim.New(seed)
	cfg := topo.DefaultFatTreeConfig(k)
	cfg.HostsPerEdge = 1
	ft := topo.NewFatTree(eng, cfg)
	t1 := time.Now()
	tr.span("topo.NewFatTree", "topo", root, -1, t0, t1)

	_, app, err := scotch.NewFatTreeDeployment(ft, scotch.DefaultConfig())
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	tr.span("scotch.NewFatTreeDeployment", "scotch", root, -1, t1, t2)

	cp := capture.New(eng)
	var sources []*workload.Emitter
	var dsts, podDsts []netaddr.IPv4
	var crowdSources []*workload.Emitter
	for pod, hosts := range ft.Hosts {
		for _, h := range hosts {
			cp.Attach(h)
			em := workload.NewEmitter(eng, h, cp)
			sources = append(sources, em)
			dsts = append(dsts, h.IP)
			if pod == 0 {
				if len(podDsts) == 0 {
					podDsts = append(podDsts, h.IP)
				}
			} else {
				crowdSources = append(crowdSources, em)
			}
		}
	}
	sc := workload.NewScenario(eng, seed)
	sc.Add(workload.TenantSpec{
		Name: "base", Curve: workload.ConstantCurve(50),
		Size:    workload.ParetoSampler{Alpha: 1.2, MinPkts: 2, MaxPkts: 50},
		PktIval: 2 * time.Millisecond,
		Sources: sources, Dsts: dsts,
	})
	sc.Add(workload.TenantSpec{
		Name: "crowd",
		Curve: workload.TrapezoidCurve{Base: 0, Peak: 250,
			RampStart: 2 * time.Second, PeakStart: 4 * time.Second,
			PeakEnd: 6 * time.Second, RampEnd: 8 * time.Second},
		Size:    workload.FixedSampler{Pkts: 3},
		PktIval: 5 * time.Millisecond,
		Sources: crowdSources, Dsts: podDsts,
	})
	clock := newFlowClock(sc, cp)
	sc.Start()
	tr.span("capture+workload.Start", "workload", root, -1, t2, time.Now())

	// Path queries: every edge switch toward a host in a far pod.
	var paths []pathQuery
	for pod, edges := range ft.Edge {
		dst := topo.FatTreeHostIP((pod+k/2)%k, 0, 0)
		for _, e := range edges {
			paths = append(paths, pathQuery{e.DPID, dst})
		}
	}
	return &simWorld{
		eng: eng, net: ft.Net, cap: cp, app: app,
		classes:    []string{"base", "crowd"},
		stop:       sc.Stop,
		clock:      clock,
		trafficEnd: 10 * time.Second,
		end:        12 * time.Second,
		paths:      paths,
	}, nil
}

// flowClock measures, per generated flow, the host time from its
// emission to its first delivery: the flow-setup latency of the simulator
// as a system, comparable to the live workload's. It hooks only the
// scenario's Emit and the capture's OnFirstDelivery, adding no events.
type flowClock struct {
	base time.Time
	sent map[netaddr.FlowKey]int64
	lat  []float64 // ms
}

func newFlowClock(sc *workload.Scenario, cp *capture.Capture) *flowClock {
	c := &flowClock{base: time.Now(), sent: map[netaddr.FlowKey]int64{}}
	sc.Emit = func(_ string, em *workload.Emitter, f workload.Flow) {
		c.sent[f.Key] = time.Since(c.base).Nanoseconds()
		em.Start(f)
	}
	cp.OnFirstDelivery = func(f *capture.FlowRecord, _ sim.Time) {
		if t, ok := c.sent[f.Key]; ok {
			c.lat = append(c.lat, float64(time.Since(c.base).Nanoseconds()-t)/1e6)
			delete(c.sent, f.Key)
		}
	}
	return c
}

// quantiles returns the p50 and p99 host latency in ms.
func (c *flowClock) quantiles() (p50, p99 float64) {
	s := append([]float64(nil), c.lat...)
	sort.Float64s(s)
	return quantile(s, 0.50), quantile(s, 0.99)
}

// simRun is what one timed run of a simWorld measured.
type simRun struct {
	wall       time.Duration
	slowestSeg time.Duration
	events     uint64
	pendingMax int
	rulesPeak  int
	// snapshot is a copy of the busiest table's rules at its peak, taken
	// between segments when requested.
	snapshot []*flowtable.Rule
}

// run advances the world in 1-sim-second RunUntil segments, timing only
// the engine calls. Between segments it samples the event heap and the
// busiest table, which adds no events.
func (w *simWorld) run(tr *tracer, root uint64, snapshot bool) simRun {
	var r simRun
	fired0 := w.eng.Fired()
	for t := time.Second; t <= w.end; t += time.Second {
		s := time.Now()
		w.eng.RunUntil(t)
		if t == w.trafficEnd {
			w.stop()
		}
		e := time.Now()
		tr.span("sim.RunUntil", "sim", root, -1, s, e)
		d := e.Sub(s)
		r.wall += d
		if d > r.slowestSeg {
			r.slowestSeg = d
		}
		if p := w.eng.Pending(); p > r.pendingMax {
			r.pendingMax = p
		}
		if tbl := w.busiestTable(); tbl != nil && tbl.Len() > r.rulesPeak {
			r.rulesPeak = tbl.Len()
			if snapshot {
				r.snapshot = copyRules(tbl.Rules())
			}
		}
	}
	r.events = w.eng.Fired() - fired0
	return r
}

// busiestTable returns the table holding the most rules across the fabric,
// breaking ties by the lowest dpid so the choice is deterministic.
func (w *simWorld) busiestTable() *flowtable.Table {
	var best *flowtable.Table
	var bestDPID uint64
	for dpid, sw := range w.net.Switches() {
		for _, t := range sw.Pipeline.Tables {
			if best == nil || t.Len() > best.Len() || (t.Len() == best.Len() && dpid < bestDPID) {
				best, bestDPID = t, dpid
			}
		}
	}
	return best
}

func copyRules(rs []*flowtable.Rule) []*flowtable.Rule {
	out := make([]*flowtable.Rule, len(rs))
	for i, r := range rs {
		c := *r
		out[i] = &c
	}
	return out
}

// simOutcome is the model output of one run: what the digest covers, and
// the end-to-end figures derived from it.
type simOutcome struct {
	canon     string // canonical text the digest hashes
	digest    string
	delivered int     // flows with at least one packet delivered, all classes
	p50, p99  float64 // pooled flow-setup latency, simulated ms

	idleClass string // a class that delivered no flow, if any
	rulesEnd  int    // rules left in all tables at the end
	active    int    // overlay activations not withdrawn

	pktinSent, pktinDropped, rulesInstalled, rulesDeleted uint64
	packetIns, flowMods                                   uint64
	requests, overlayRouted                               uint64
}

// outcome reads the run's results. The digest covers per-class sent,
// delivered and completed counts, flow-setup latency quantiles in sim
// time, Packet-In and rule counters summed over switches, the rules left
// at the end, and the Scotch request and overlay counters. The event
// count stays out, so batching events keeps the digest.
func (w *simWorld) outcome() simOutcome {
	var o simOutcome
	var b strings.Builder
	var pooled []time.Duration
	for _, class := range w.classes {
		sent, recv := w.cap.Counts(class)
		flows := w.cap.Flows(class)
		completed := 0
		var lat []time.Duration
		for _, f := range flows {
			if f.Completed() {
				completed++
			}
			if f.Delivered() {
				lat = append(lat, f.FirstRecv-f.FirstSent)
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		pooled = append(pooled, lat...)
		o.delivered += len(lat)
		if len(lat) == 0 && o.idleClass == "" {
			o.idleClass = class
		}
		fmt.Fprintf(&b, "class=%s flows=%d sent=%d delivered=%d completed=%d setup_ns_p50=%d p90=%d p99=%d\n",
			class, len(flows), sent, recv, completed,
			quantile(lat, 0.50), quantile(lat, 0.90), quantile(lat, 0.99))
	}
	sort.Slice(pooled, func(i, j int) bool { return pooled[i] < pooled[j] })
	o.p50 = float64(quantile(pooled, 0.50)) / 1e6
	o.p99 = float64(quantile(pooled, 0.99)) / 1e6

	for _, sw := range w.net.Switches() {
		o.pktinSent += sw.Stats.PacketInSent
		o.pktinDropped += sw.Stats.PacketInDropped
		o.rulesInstalled += sw.Stats.RulesInstalled
		o.rulesDeleted += sw.Stats.RulesDeleted
		for _, t := range sw.Pipeline.Tables {
			o.rulesEnd += t.Len()
		}
	}
	cs, ss := w.app.C.Stats, w.app.Stats
	o.packetIns, o.flowMods = cs.PacketIns, cs.FlowModsSent
	o.requests, o.overlayRouted = ss.Requests, ss.OverlayRouted
	fmt.Fprintf(&b, "pktin_sent=%d pktin_dropped=%d rules_installed=%d rules_deleted=%d rules_end=%d\n",
		o.pktinSent, o.pktinDropped, o.rulesInstalled, o.rulesDeleted, o.rulesEnd)
	fmt.Fprintf(&b, "scotch requests=%d physical=%d overlay=%d dropped=%d activations=%d withdrawals=%d\n",
		ss.Requests, ss.PhysicalAdmitted, ss.OverlayRouted, ss.Dropped, ss.Activations, ss.Withdrawals)
	o.active = int(ss.Activations) - int(ss.Withdrawals)
	o.canon = b.String()
	sum := sha256.Sum256([]byte(o.canon))
	o.digest = hex.EncodeToString(sum[:8])
	return o
}

// check applies the workload's invariants to an outcome: every class
// delivers, and a draining workload ends with empty tables and the overlay
// withdrawn.
func (w *simWorld) check(o simOutcome) error {
	switch {
	case o.idleClass != "":
		return fmt.Errorf("class %s delivered no flow", o.idleClass)
	case w.drains && o.rulesEnd != 0:
		return fmt.Errorf("%d rules left after the tail", o.rulesEnd)
	case w.drains && o.active != 0:
		return fmt.Errorf("overlay still active after the tail")
	}
	return nil
}

// quantile is the nearest-rank quantile of sorted values.
func quantile[T ~int64 | ~float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// heapLiveMB forces a collection and returns the heap still in use.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
