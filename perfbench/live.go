package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scotch/internal/flowtable"
	"scotch/internal/netaddr"
	"scotch/internal/ofnet"
	"scotch/internal/openflow"
	"scotch/internal/packet"
)

// live-loopback: an in-process ofnet.Controller and two ofnet.LiveSwitch
// agents over 127.0.0.1 TCP, fed by one generator goroutine. A reactive
// handler answers each punted packet with an exact 5-tuple FlowMod and a
// PacketOut; every injected packet is a new flow. Each phase builds a
// fresh rig, so its tables start empty (live switches never expire rules).
const (
	liveWindow     = 16              // closed loop: outstanding flows per switch
	liveBatch      = 20000           // closed loop: flows per batch
	liveRate       = 3000            // open loop: flows/s, about a third of closed-loop capacity
	livePhaseFlows = 6000            // open loop: flows per phase (2 s at liveRate)
	liveTimeout    = 2 * time.Second // delivery deadline once progress stops
	minLivePhases  = 3               // fewest closed- and open-loop phases per run
	inPort         = 1
	outPort        = 2
)

// flowKey is the 5-tuple of live flow id; the id rides in the source
// address so the handler and the sinks can recover it.
func flowKey(id int) netaddr.FlowKey {
	return netaddr.FlowKey{Src: netaddr.IPv4(10<<24 | uint32(id)&0xffffff), Dst: netaddr.MakeIPv4(192, 168, 0, 1),
		Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: 80}
}

func flowID(k netaddr.FlowKey) int { return int(uint32(k.Src) & 0xffffff) }

// livePhase is the per-flow bookkeeping of one phase. Flow id i enters
// switch i%2. Times are nanoseconds since base; the handler-side stamps
// are taken only when traced.
type livePhase struct {
	n      int
	traced bool
	base   time.Time
	pkts   []*packet.Packet

	count     []atomic.Uint32 // deliveries on the right switch and port
	wrong     atomic.Uint64   // deliveries of unknown flows or on the wrong switch
	delivered atomic.Int64    // flows delivered at least once
	// done carries the switch index of each first delivery (closed loop).
	done chan int
	// dropFlow, when >= 0, makes the sink lose that flow: the self-test's
	// stand-in for a program that drops one.
	dropFlow int

	due, injStart, injEnd          []atomic.Int64
	hIn, hOut, poStart, deliverT   []atomic.Int64
	installs, writeErrs, parseErrs atomic.Uint64
}

func newPhase(n int, traced bool) *livePhase {
	ph := &livePhase{n: n, traced: traced, dropFlow: -1,
		// Sized to the most first deliveries that can be outstanding.
		done:  make(chan int, 2*liveWindow),
		count: make([]atomic.Uint32, n),
		due:   make([]atomic.Int64, n), injStart: make([]atomic.Int64, n), injEnd: make([]atomic.Int64, n),
		hIn: make([]atomic.Int64, n), hOut: make([]atomic.Int64, n), poStart: make([]atomic.Int64, n),
		deliverT: make([]atomic.Int64, n),
	}
	ph.pkts = make([]*packet.Packet, n)
	for i := range ph.pkts {
		k := flowKey(i)
		ph.pkts[i] = packet.NewTCP(k.Src, k.Dst, k.SrcPort, k.DstPort, packet.FlagSYN)
	}
	ph.base = time.Now()
	return ph
}

func (ph *livePhase) now() int64 { return time.Since(ph.base).Nanoseconds() }

// sink is switch s's output port: it records each delivery.
func (ph *livePhase) sink(s int) func(*packet.Packet) {
	return func(p *packet.Packet) {
		t := ph.now()
		id := flowID(p.FlowKey())
		if id >= ph.n || id%2 != s {
			ph.wrong.Add(1)
			return
		}
		if id == ph.dropFlow {
			return
		}
		if ph.count[id].Add(1) != 1 {
			return
		}
		ph.deliverT[id].Store(t)
		ph.delivered.Add(1)
		select {
		case ph.done <- s:
		default: // open loop: nobody reads done
		}
	}
}

// failures counts flows not delivered exactly once on the right port,
// plus deliveries of unknown flows or on the wrong switch.
func (ph *livePhase) failures() int {
	f := int(ph.wrong.Load())
	for i := range ph.count {
		if ph.count[i].Load() != 1 {
			f++
		}
	}
	return f
}

// reactive is the controller application: exact-match FlowMod plus
// PacketOut for every punted packet.
type reactive struct {
	ph        *livePhase
	connected chan struct{}
}

func (h *reactive) SwitchConnected(*ofnet.SwitchConn) { h.connected <- struct{}{} }
func (h *reactive) SwitchGone(*ofnet.SwitchConn)      {}

func (h *reactive) PacketIn(sw *ofnet.SwitchConn, pin *openflow.PacketIn) {
	ph := h.ph
	tIn := ph.now()
	pkt, err := packet.Parse(pin.Data)
	if err != nil {
		ph.parseErrs.Add(1)
		return
	}
	key := pkt.FlowKey()
	id := flowID(key)
	traced := ph.traced && id < ph.n
	if traced {
		ph.hIn[id].Store(tIn)
	}
	fm := &openflow.FlowMod{Command: openflow.FlowAdd, Priority: 100, BufferID: 0xffffffff,
		Match: flowtable.ExactMatch(key), Instructions: openflow.Apply1(openflow.OutputAction(outPort))}
	if err := sw.Install(fm); err != nil {
		ph.writeErrs.Add(1)
	}
	ph.installs.Add(1)
	if traced {
		ph.poStart[id].Store(ph.now())
	}
	if err := sw.PacketOut(openflow.PacketOut1(pin.Match.InPort, openflow.OutputAction(outPort), pin.Data)); err != nil {
		ph.writeErrs.Add(1)
	}
	if traced {
		ph.hOut[id].Store(ph.now())
	}
}

// liveRig is one controller with its two connected switches.
type liveRig struct {
	ctrl   *ofnet.Controller
	sws    [2]*ofnet.LiveSwitch
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// newRig listens, starts both switches, and returns once both handshakes
// have completed: set-up time for the live workload.
func newRig(ph *livePhase) (*liveRig, error) {
	h := &reactive{ph: ph, connected: make(chan struct{}, 2)}
	ctrl, err := ofnet.NewController("127.0.0.1:0", h)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &liveRig{ctrl: ctrl, cancel: cancel}
	for i := range r.sws {
		sw := ofnet.NewLiveSwitch(uint64(i+1), 1)
		sw.RegisterPort(outPort, ph.sink(i))
		r.sws[i] = sw
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			sw.DialAndServe(ctx, ctrl.Addr()) // ends when close cancels ctx
		}()
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < len(r.sws); i++ {
		select {
		case <-h.connected:
		case <-deadline:
			r.close()
			return nil, fmt.Errorf("live switches did not complete the handshake")
		}
	}
	return r, nil
}

// close stops both switches and the controller and waits for their
// goroutines.
func (r *liveRig) close() {
	r.cancel()
	r.ctrl.Close()
	r.wg.Wait()
}

func (r *liveRig) inject(ph *livePhase, id int) {
	ph.injStart[id].Store(ph.now())
	r.sws[id%2].Inject(ph.pkts[id], inPort)
	ph.injEnd[id].Store(ph.now())
}

// closedLoop keeps liveWindow flows outstanding per switch until all of
// the phase's flows are delivered or progress stalls for liveTimeout. It
// returns the host time the phase took.
func (r *liveRig) closedLoop(ph *livePhase) time.Duration {
	next := [2]int{0, 1}
	start := time.Now()
	for s := range next {
		for j := 0; j < liveWindow && next[s] < ph.n; j++ {
			r.inject(ph, next[s])
			next[s] += 2
		}
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	last := time.Now()
	for completed := 0; completed < ph.n; {
		select {
		case s := <-ph.done:
			completed++
			last = time.Now()
			if next[s] < ph.n {
				r.inject(ph, next[s])
				next[s] += 2
			}
		case <-tick.C:
			if time.Since(last) > liveTimeout {
				return time.Since(start)
			}
		}
	}
	return time.Since(start)
}

// openLoop injects the phase's flows at liveRate, alternating switches,
// then waits for delivery. Flows fall due in bursts at 1 ms ticks (the
// resolution of the runtime's timer sleep), and each flow's due time is
// recorded so its latency counts any stall of the generator.
func (r *liveRig) openLoop(ph *livePhase) {
	const perTick = liveRate / 1000
	start := ph.now() + time.Millisecond.Nanoseconds()
	for i := 0; i < ph.n; i++ {
		due := start + int64(i/perTick)*time.Millisecond.Nanoseconds()
		if d := due - ph.now(); d > 0 {
			sleepPrecise(time.Duration(d))
		}
		ph.due[i].Store(due)
		r.inject(ph, i)
	}
	last, seen := time.Now(), ph.delivered.Load()
	for seen < int64(ph.n) && time.Since(last) < liveTimeout {
		time.Sleep(time.Millisecond)
		if d := ph.delivered.Load(); d != seen {
			seen, last = d, time.Now()
		}
	}
}

// openLatencies returns sorted delivery latencies (due → delivery) and
// generator lateness (due → injection) in ms, over delivered flows.
func (ph *livePhase) openLatencies() (lat, late []float64) {
	for i := 0; i < ph.n; i++ {
		late = append(late, float64(ph.injStart[i].Load()-ph.due[i].Load())/1e6)
		if ph.count[i].Load() == 1 {
			lat = append(lat, float64(ph.deliverT[i].Load()-ph.due[i].Load())/1e6)
		}
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	return lat, late
}

// livePhaseResult is what one phase measured.
type livePhaseResult struct {
	setup, wall time.Duration
	heap        float64
	failed      int
	rulesPeak   int
	pktinSent   uint64
	installed   uint64 // rules the switches installed
	flowMods    uint64 // FlowMods the handler sent
	packetIns   uint64
	writeErrs   uint64
	late99      float64   // generator lateness p99, ms
	lat         []float64 // sorted open-loop latencies, ms
}

// runPhase builds a rig, runs one closed- or open-loop phase on it, and
// tears it down.
func runPhase(ph *livePhase, closed bool) (livePhaseResult, error) {
	// The open-loop generator stands in for remote clients. One P beyond
	// the CPU count lets it run when the controller's and switches'
	// goroutines hold every other P, instead of waiting up to a
	// preemption quantum (10 ms) to inject. The closed loop waits for its
	// own deliveries and runs with one P per CPU: oversubscribed, its
	// throughput varied five times as much from run to run.
	procs := runtime.NumCPU()
	if !closed {
		procs++
	}
	runtime.GOMAXPROCS(procs)
	var res livePhaseResult
	t0 := time.Now()
	r, err := newRig(ph)
	if err != nil {
		return res, err
	}
	res.setup = time.Since(t0)
	if closed {
		res.wall = r.closedLoop(ph)
	} else {
		r.openLoop(ph)
	}
	res.heap = heapLiveMB()
	for _, sw := range r.sws {
		res.rulesPeak = max(res.rulesPeak, sw.RuleCount())
		res.pktinSent += sw.Misses.Load()
		res.installed += sw.Installed.Load()
	}
	res.packetIns = r.ctrl.PacketInsRecv.Load()
	res.flowMods = ph.installs.Load()
	r.close()
	res.writeErrs = r.ctrl.WriteErrors.Load() + ph.writeErrs.Load()
	res.failed = ph.failures() + int(ph.parseErrs.Load())
	if !closed {
		var late []float64
		res.lat, late = ph.openLatencies()
		res.late99 = quantile(late, 0.99)
	}
	return res, nil
}

func runLive(cfg runConfig) (*outcome, error) {
	o := &outcome{values: map[string]float64{}, info: map[string]any{}}
	if cfg.trace {
		return o, traceLive(cfg, o)
	}
	var setups, walls, heaps, p50s, lates, pooled []float64
	start := time.Now()
	phase := func(closed bool) error {
		n := livePhaseFlows
		if closed {
			n = liveBatch
		}
		ph := newPhase(n, false)
		res, err := runPhase(ph, closed)
		if err != nil {
			return err
		}
		o.attempted += ph.n
		o.failed += res.failed
		setups = append(setups, res.setup.Seconds())
		if closed {
			walls = append(walls, res.wall.Seconds())
			heaps = append(heaps, res.heap)
		} else {
			p50s = append(p50s, quantile(res.lat, 0.50))
			lates = append(lates, res.late99)
			pooled = append(pooled, res.lat...)
		}
		return nil
	}
	// The closed loop gets the first 40% of the measuring time.
	for len(walls) < minLivePhases || time.Since(start).Seconds() < 0.4*cfg.seconds {
		if err := phase(true); err != nil {
			return nil, err
		}
	}
	for len(lates) < minLivePhases || !cfg.elapsed(start) {
		if err := phase(false); err != nil {
			return nil, err
		}
	}
	wall := median(walls)
	o.values["wall_s"] = wall
	o.values["live_fps"] = liveBatch / wall
	o.values["setup_s"] = median(setups)
	o.values["heap_live_mb"] = median(heaps)
	// The median over phases of each phase's p50 shrugs off a phase the
	// host stalled; p99 needs every open-loop flow of the run pooled.
	o.values["setup_p50_ms"] = median(p50s)
	sort.Float64s(pooled)
	o.info["setup_p99_ms"] = quantile(pooled, 0.99)
	o.info["closed_batch_s_samples"] = walls
	o.info["setup_p50_ms_samples"] = p50s
	o.info["generator_late_p99_ms_samples"] = lates
	o.info["setup_s_samples"] = setups
	o.info["gomaxprocs_closed_open"] = []int{runtime.NumCPU(), runtime.NumCPU() + 1}
	o.notes = append(o.notes, fmt.Sprintf("closed loop: %d batches of %d flows, window %d/switch; open loop: %d phases of %d flows at %d/s, generator p99 late %.3f ms; setup_p99_ms %.4g (not gated)",
		len(walls), liveBatch, liveWindow, len(lates), livePhaseFlows, liveRate, median(lates), o.info["setup_p99_ms"]))
	return o, nil
}

// traceLive is the traced run of the live workload: an untraced closed
// batch and open phase for the counters and overhead baseline, then the
// same pair traced and profiled, then the layer probes.
func traceLive(cfg runConfig, o *outcome) error {
	v := o.values
	g0 := readGC()
	closedPlain, err := runPhase(newPhase(liveBatch, false), true)
	if err != nil {
		return err
	}
	openPlain, err := runPhase(newPhase(livePhaseFlows, false), false)
	if err != nil {
		return err
	}
	putGC(v, g0, readGC())

	tr := newTracer()
	o.profile = filepath.Join(cfg.outDir, "cpu.prof")
	stop, err := startProfile(o.profile)
	if err != nil {
		return err
	}
	closedPh, openPh := newPhase(liveBatch, true), newPhase(livePhaseFlows, true)
	closedTr, err := runPhase(closedPh, true)
	if err == nil {
		_, err = runPhase(openPh, false)
	}
	if perr := stop(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	o.attempted = 2*liveBatch + 2*livePhaseFlows
	o.failed = closedPlain.failed + openPlain.failed + closedTr.failed + openPh.failures()

	v["flowtable.rules_peak"] = float64(closedPlain.rulesPeak)
	v["device.pktin_sent"] = float64(closedPlain.pktinSent)
	v["device.rules_installed"] = float64(closedPlain.installed)
	v["controller.packet_ins"] = float64(closedPlain.packetIns)
	v["controller.flow_mods"] = float64(closedPlain.flowMods)
	v["ofnet.write_errors"] = float64(closedPlain.writeErrs + openPlain.writeErrs)
	v["harness.gen_late_ms"] = openPlain.late99
	v["harness.setup_p99_ms"] = quantile(openPlain.lat, 0.99)
	v["harness.trace_overhead"] = closedTr.wall.Seconds() / closedPlain.wall.Seconds()

	punt, handler, ret := openPh.spans(tr, 0)
	closedPh.spans(tr, int64(openPh.n))
	v["ofnet.punt_us"], v["ofnet.handler_us"], v["ofnet.return_us"] = median(punt), median(handler), median(ret)

	// Probes on switch 0's table as the closed batch left it.
	ps := tr.since()
	var rules []*flowtable.Rule
	for id := 0; id < liveBatch; id += 2 {
		rules = append(rules, &flowtable.Rule{Priority: 100, Match: flowtable.ExactMatch(flowKey(id)),
			Instructions: openflow.Apply1(openflow.OutputAction(outPort))})
	}
	v["flowtable.insert_us"], v["flowtable.lookup_ns"], v["flowtable.expire_ms"] = probeFlowtable(rules, nil)
	fm, pin := codecShapes(flowKey(0))
	v["openflow.marshal_ns"], v["openflow.unmarshal_ns"], v["packet.parse_ns"] = probeCodec(fm, pin)
	tr.spanNs("probes", "harness", 0, -1, ps, tr.since())
	if err := tr.write(filepath.Join(cfg.outDir, "spans.jsonl")); err != nil {
		return err
	}
	o.info["spans"] = len(tr.spans)
	return nil
}

// spans converts a traced phase's stamps into per-flow spans (flow ids
// offset by idBase so phases do not collide) and returns the punt,
// handler and return durations in µs.
func (ph *livePhase) spans(tr *tracer, idBase int64) (punt, handler, ret []float64) {
	off := ph.base.Sub(tr.base).Nanoseconds()
	for i := 0; i < ph.n; i++ {
		in, hin, hout, po, dl := ph.injStart[i].Load(), ph.hIn[i].Load(), ph.hOut[i].Load(), ph.poStart[i].Load(), ph.deliverT[i].Load()
		if hin == 0 || dl == 0 {
			continue
		}
		flow := idBase + int64(i)
		root := tr.spanNs("flow", "harness", 0, flow, off+in, off+dl)
		tr.spanNs("LiveSwitch.Inject", "ofnet", root, flow, off+in, off+ph.injEnd[i].Load())
		h := tr.spanNs("handler.PacketIn", "ofnet", root, flow, off+hin, off+hout)
		tr.spanNs("parse+SwitchConn.Install", "ofnet", h, flow, off+hin, off+po)
		tr.spanNs("SwitchConn.PacketOut", "ofnet", h, flow, off+po, off+hout)
		tr.spanNs("deliver", "ofnet", root, flow, off+po, off+dl)
		punt = append(punt, float64(hin-in)/1e3)
		handler = append(handler, float64(hout-hin)/1e3)
		ret = append(ret, float64(dl-po)/1e3)
	}
	return punt, handler, ret
}
