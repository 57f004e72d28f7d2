package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"time"
)

// minSimReps is the fewest timed repetitions an untraced sim run makes,
// however short --seconds is, so its medians have three samples.
const minSimReps = 3

//go:embed testdata/digests.json
var digestsJSON []byte

// referenceDigest returns the stored outcome digest for a workload and
// seed, or "" when none is stored.
func referenceDigest(workload string, seed int64) (string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return "", fmt.Errorf("testdata/digests.json: %w", err)
	}
	return all[workload][strconv.FormatInt(seed, 10)], nil
}

// checkDigest decides whether one repetition's outcome is correct: it must
// match the stored reference for its seed when there is one, and the first
// repetition of the same run otherwise.
func checkDigest(got, ref, first string) error {
	switch {
	case ref != "" && got != ref:
		return fmt.Errorf("digest %s, reference %s", got, ref)
	case first != "" && got != first:
		return fmt.Errorf("digest %s differs from the run's first repetition %s", got, first)
	}
	return nil
}

// simRep is one repetition: set-up, timed run, and outcome.
type simRep struct {
	world *simWorld
	setup time.Duration
	run   simRun
	out   simOutcome
	heap  float64
	// p50 and p99 are the host-time flow-setup latencies in ms.
	p50, p99 float64
}

// repeatSim builds and runs the workload once. A panic anywhere in the
// program counts as a failed repetition, not a crashed benchmark.
func repeatSim(spec simSpec, seed int64, tr *tracer, snapshot bool) (rep simRep, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	root := tr.begin("repetition", "harness", 0)
	defer tr.end(root)
	t0 := time.Now()
	w, err := spec(seed, tr, root)
	if err != nil {
		return rep, err
	}
	rep.setup = time.Since(t0)
	rep.run = w.run(tr, root, snapshot)
	rep.out = w.outcome()
	if err := w.check(rep.out); err != nil {
		return rep, err
	}
	rep.world = w
	rep.p50, rep.p99 = w.clock.quantiles()
	w.clock.sent, w.clock.lat = nil, nil
	// Heap live while the world is still reachable: what the run holds.
	rep.heap = heapLiveMB()
	runtime.KeepAlive(w)
	return rep, nil
}

func runSim(cfg runConfig, spec simSpec) (*outcome, error) {
	ref, err := referenceDigest(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	return simulate(cfg, spec, ref)
}

// simulate runs a sim workload, checking every repetition against the
// reference digest ref ("" when the seed has none).
func simulate(cfg runConfig, spec simSpec, ref string) (*outcome, error) {
	o := &outcome{values: map[string]float64{}, info: map[string]any{"reference_digest": ref}}
	if cfg.trace {
		return o, traceSim(cfg, spec, ref, o)
	}
	var setups, walls, heaps, fps, p50s, p99s []float64
	var first simOutcome // the first good repetition's outcome
	start := time.Now()
	for o.attempted < minSimReps || !cfg.elapsed(start) {
		rep, err := repeatSim(spec, cfg.seed, nil, false)
		o.attempted++
		if err == nil {
			err = checkDigest(rep.out.digest, ref, first.digest)
		}
		if err != nil {
			o.failed++
			o.notes = append(o.notes, fmt.Sprintf("repetition %d failed: %v", o.attempted, err))
			continue
		}
		if first.digest == "" {
			first = rep.out
		}
		setups = append(setups, rep.setup.Seconds())
		walls = append(walls, rep.run.wall.Seconds())
		heaps = append(heaps, rep.heap)
		fps = append(fps, float64(rep.out.delivered)/rep.run.wall.Seconds())
		p50s, p99s = append(p50s, rep.p50), append(p99s, rep.p99)
	}
	o.values["setup_s"] = median(setups)
	o.values["wall_s"] = median(walls)
	o.values["heap_live_mb"] = median(heaps)
	o.values["live_fps"] = median(fps)
	o.values["setup_p50_ms"] = median(p50s)
	o.info["setup_p99_ms"] = median(p99s)
	o.info["digest"] = first.digest
	o.info["outcome"] = first.canon
	o.info["setup_s_samples"] = setups
	o.info["wall_s_samples"] = walls
	o.info["setup_p99_ms_samples"] = p99s
	o.notes = append(o.notes, fmt.Sprintf("digest %s (reference %q), %d repetitions; setup_p99_ms %.4g (not gated)",
		first.digest, ref, o.attempted, median(p99s)))
	return o, nil
}

// gcSnap is a reading of the runtime's allocation and GC counters.
type gcSnap struct {
	cycles          uint32
	mallocs, allocB uint64
	gcCPU           float64
}

func readGC() gcSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	var cpu float64
	if s[0].Value.Kind() == metrics.KindFloat64 {
		cpu = s[0].Value.Float64()
	}
	return gcSnap{cycles: ms.NumGC, mallocs: ms.Mallocs, allocB: ms.TotalAlloc, gcCPU: cpu}
}

// putGC stores the runtime counters accumulated between a and b.
func putGC(v map[string]float64, a, b gcSnap) {
	v["gc.cycles"] = float64(b.cycles - a.cycles)
	v["gc.cpu_s"] = b.gcCPU - a.gcCPU
	v["gc.allocs"] = float64(b.mallocs - a.mallocs)
	v["gc.alloc_mb"] = float64(b.allocB-a.allocB) / (1 << 20)
}

// startProfile begins a CPU profile written to path; the returned stop
// function ends it.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// traceSim is the traced run of a sim workload: one untraced repetition
// for the counters and the overhead baseline, one traced and profiled
// repetition, then the layer probes on the traced repetition's state.
func traceSim(cfg runConfig, spec simSpec, ref string, o *outcome) error {
	v := o.values
	g0 := readGC()
	plain, err := repeatSim(spec, cfg.seed, nil, false)
	g1 := readGC()
	o.attempted++
	if err == nil {
		err = checkDigest(plain.out.digest, ref, "")
	}
	if err != nil {
		return fmt.Errorf("untraced repetition: %w", err)
	}
	plain.world = nil
	putGC(v, g0, g1)
	r := plain.run
	v["sim.events"] = float64(r.events)
	v["sim.ns_per_event"] = float64(r.wall.Nanoseconds()) / float64(max(r.events, 1))
	v["sim.pending_max"] = float64(r.pendingMax)
	v["sim.slowest_second_s"] = r.slowestSeg.Seconds()
	v["flowtable.rules_peak"] = float64(r.rulesPeak)
	out := plain.out
	v["device.pktin_sent"] = float64(out.pktinSent)
	v["device.pktin_dropped"] = float64(out.pktinDropped)
	v["device.rules_installed"] = float64(out.rulesInstalled)
	v["device.rules_deleted"] = float64(out.rulesDeleted)
	v["controller.packet_ins"] = float64(out.packetIns)
	v["controller.flow_mods"] = float64(out.flowMods)
	v["scotch.requests"] = float64(out.requests)
	v["scotch.overlay_ratio"] = float64(out.overlayRouted) / float64(max(out.requests, 1))

	tr := newTracer()
	o.profile = filepath.Join(cfg.outDir, "cpu.prof")
	stop, err := startProfile(o.profile)
	if err != nil {
		return err
	}
	traced, err := repeatSim(spec, cfg.seed, tr, true)
	if perr := stop(); perr != nil && err == nil {
		err = perr
	}
	o.attempted++
	if err == nil {
		err = checkDigest(traced.out.digest, ref, plain.out.digest)
	}
	if err != nil {
		return fmt.Errorf("traced repetition: %w", err)
	}
	v["harness.trace_overhead"] = traced.run.wall.Seconds() / plain.run.wall.Seconds()
	v["harness.setup_p99_ms"] = plain.p99
	v["harness.gen_late_ms"] = 0 // the simulated generators run in virtual time

	w := traced.world
	ps := tr.since()
	v["flowtable.insert_us"], v["flowtable.lookup_ns"], v["flowtable.expire_ms"] =
		probeFlowtable(traced.run.snapshot, w.probeKeys())
	v["topo.path_us"] = probePaths(w.net, w.paths)
	fm, pin := codecShapes(w.probeKeys()[0])
	v["openflow.marshal_ns"], v["openflow.unmarshal_ns"], v["packet.parse_ns"] = probeCodec(fm, pin)
	tr.spanNs("probes", "harness", 0, -1, ps, tr.since())

	if err := tr.write(filepath.Join(cfg.outDir, "spans.jsonl")); err != nil {
		return err
	}
	o.info["digest"] = traced.out.digest
	o.info["outcome"] = traced.out.canon
	o.info["snapshot_rules"] = len(traced.run.snapshot)
	o.info["spans"] = len(tr.spans)
	return nil
}
