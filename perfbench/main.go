// Command perfbench is the repository benchmark: it builds each workload
// from the packages' public API, measures it from outside, checks its
// outputs, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload ddos-overlay --seed 1 --seconds 20 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics, adding spans around the
// benchmark's own calls into each layer, layer probes, and a CPU profile
// grouped by repository package. See README.md for the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is what one invocation asks for.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	// values holds metric values by name; per-layer metrics a workload
	// does not produce are reported as 0.
	values map[string]float64
	// info is recorded in the result file beside the metrics.
	info map[string]any
	// profile, when set, is the traced run's CPU profile to group.
	profile string
	// notes are printed as human-readable lines before the result.
	notes []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg runConfig
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measuring time per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if !slices.Contains(workloadNames, cfg.workload) {
		return fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	cfg.outDir = filepath.Join(".bench_build", "results", fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, trace))
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}

	steal0, total0 := cpuStat()
	var o *outcome
	var err error
	if spec, ok := simSpecs[cfg.workload]; ok {
		o, err = runSim(cfg, spec)
	} else {
		o, err = runLive(cfg)
	}
	if err != nil {
		return err
	}
	steal1, total1 := cpuStat()
	steal := float64(steal1-steal0) / float64(max(total1-total0, 1))
	if o.profile != "" {
		self, samples, table, err := groupProfile(o.profile)
		if err != nil {
			return fmt.Errorf("group profile: %w", err)
		}
		for _, l := range profileLayers {
			o.values[l+".self_s"] = self[l]
		}
		o.info["profile_samples"] = samples
		if err := os.WriteFile(filepath.Join(cfg.outDir, "layers.txt"), []byte(table), 0o644); err != nil {
			return err
		}
		o.notes = append(o.notes, "per-layer CPU table: "+filepath.Join(cfg.outDir, "layers.txt"))
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}

	o.info["workload"] = cfg.workload
	o.info["seed"] = cfg.seed
	o.info["seconds"] = cfg.seconds
	o.info["trace"] = cfg.trace
	o.info["nproc"] = runtime.NumCPU()
	o.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	o.info["go_version"] = runtime.Version()
	o.info["fail_frac"] = float64(o.failed) / float64(max(o.attempted, 1))
	o.info["host_steal_frac"] = steal
	o.info["result"] = res
	o.info["all_values"] = o.values
	b, err := json.MarshalIndent(o.info, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, "result.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}

	for _, n := range o.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("# %-24s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("# fail_frac=%g (%d of %d) nproc=%d GOMAXPROCS=%d %s host_steal=%.1f%% results=%s\n",
		o.info["fail_frac"], o.failed, o.attempted, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), 100*steal, cfg.outDir)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuStat returns the host's stolen and total CPU ticks from the first
// line of /proc/stat, or zeros where there is none. Steal is time the
// hypervisor ran someone else while this guest wanted a CPU; on a shared
// host it is the main source of run-to-run noise, so each result records
// its share.
func cpuStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}

// elapsed reports whether a run that started at start has measured for
// the configured seconds.
func (c runConfig) elapsed(start time.Time) bool {
	return time.Since(start).Seconds() >= c.seconds
}
