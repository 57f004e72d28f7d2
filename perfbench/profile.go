package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// cpuSamplePeriod is the runtime/pprof default sampling period (100 Hz).
const cpuSamplePeriod = 10 * time.Millisecond

// groupProfile charges every CPU sample to a layer and returns the CPU
// seconds per layer, the sample count, and a printable table. It reads
// the text of `go tool pprof -traces`, so it needs no profile-format
// dependency.
func groupProfile(path string) (map[string]float64, int, string, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(path))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, "", fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	self, err := parseTraces(out)
	if err != nil {
		return nil, 0, "", err
	}
	var total float64
	layers := make([]string, 0, len(self))
	for l, s := range self {
		total += s
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool {
		if self[layers[i]] != self[layers[j]] {
			return self[layers[i]] > self[layers[j]]
		}
		return layers[i] < layers[j]
	})
	samples := int(total/cpuSamplePeriod.Seconds() + 0.5)
	var b strings.Builder
	fmt.Fprintf(&b, "# CPU self time by layer: innermost repository frame; runtime and\n")
	fmt.Fprintf(&b, "# library frames go to their nearest repository caller, GC workers to gc.\n")
	fmt.Fprintf(&b, "# %d samples, %.2f CPU-s\n", samples, total)
	fmt.Fprintf(&b, "%-12s %10s %7s\n", "layer", "self_s", "share")
	for _, l := range layers {
		fmt.Fprintf(&b, "%-12s %10.3f %6.1f%%\n", l, self[l], 100*self[l]/max(total, 1e-9))
	}
	return self, samples, b.String(), nil
}

// parseTraces sums the sample values of `go tool pprof -traces` output by
// layer. Each stack block starts with a line holding the value and the
// leaf frame; the following lines hold its callers.
func parseTraces(text []byte) (map[string]float64, error) {
	self := map[string]float64{}
	var value float64
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			self[layerOf(stack)] += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inStacks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inStacks = true
			continue
		}
		if !inStacks || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if line[0] != ' ' || !strings.HasPrefix(line, "     ") {
			return nil, fmt.Errorf("unexpected pprof -traces line %q", line)
		}
		if len(stack) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof -traces value %q: %w", fields[0], err)
			}
			value = d.Seconds()
			fields = fields[1:]
		}
		if len(fields) > 0 {
			stack = append(stack, fields[0])
		}
	}
	flush()
	return self, sc.Err()
}

// layerOf names the layer a stack (leaf first) is charged to: the package
// of the innermost repository frame (harness for the benchmark itself,
// net for Go's socket layer), else gc for GC workers, else runtime.
func layerOf(stack []string) string {
	for _, f := range stack {
		pkg := f
		if i := strings.IndexByte(f, '.'); i >= 0 {
			pkg = f[:i]
		}
		switch {
		case strings.HasPrefix(pkg, "scotch/internal/"):
			return strings.TrimPrefix(pkg, "scotch/internal/")
		case pkg == "main":
			return "harness"
		case pkg == "net":
			return "net"
		}
	}
	for _, f := range stack {
		switch {
		case strings.HasPrefix(f, "runtime.gcBgMarkWorker"):
			return "gc"
		case strings.HasPrefix(f, "runtime/pprof."):
			return "profiler"
		}
	}
	return "runtime"
}
