package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndLimits(t *testing.T) {
	if n := len(workloadNames); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		check(d)
	}
	for _, d := range perLayer {
		check(d)
	}
	for _, w := range workloadNames {
		if !nameRE.MatchString(w) || seen[w] {
			t.Errorf("workload name %q invalid or reused", w)
		}
		seen[w] = true
	}
	for _, l := range profileLayers {
		if !seen[l+".self_s"] {
			t.Errorf("profile layer %s has no %s.self_s per-layer metric", l, l)
		}
	}
}

// TestBenchmarkFileMatchesCatalog pins BENCHMARK.json to the metrics the
// program prints, in order, with the same units.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, catalog %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, catalog %q", i, w.Name, workloadNames[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, catalog %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end %d: BENCHMARK.json %s/%s, catalog %s/%s", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer %d: BENCHMARK.json %s/%s, catalog %s/%s", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
}

func TestPerturbedDigestCountsAsFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ddos-overlay simulation")
	}
	ref, err := referenceDigest("ddos-overlay", 1)
	if err != nil || ref == "" {
		t.Fatalf("no reference digest for seed 1: %v", err)
	}
	perturbed := []byte(ref)
	perturbed[0] ^= 1
	o, err := simulate(runConfig{workload: "ddos-overlay", seed: 1, seconds: 0.001}, buildDDoSOverlay, string(perturbed))
	if err != nil {
		t.Fatal(err)
	}
	if o.attempted != minSimReps || o.failed != o.attempted {
		t.Errorf("perturbed reference: %d of %d repetitions failed, want all %d", o.failed, o.attempted, minSimReps)
	}
}

func TestCheckDigest(t *testing.T) {
	for _, c := range []struct {
		got, ref, first string
		ok              bool
	}{
		{"aa", "aa", "", true},
		{"aa", "", "aa", true},
		{"aa", "", "", true},
		{"ab", "aa", "", false},
		{"ab", "", "aa", false},
		{"aa", "aa", "ab", false},
	} {
		if err := checkDigest(c.got, c.ref, c.first); (err == nil) != c.ok {
			t.Errorf("checkDigest(%q, %q, %q) = %v, want ok=%v", c.got, c.ref, c.first, err, c.ok)
		}
	}
}

func TestDroppedLiveFlowCountsAsFailure(t *testing.T) {
	ph := newPhase(200, false)
	ph.dropFlow = 37
	res, err := runPhase(ph, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 {
		t.Errorf("one dropped flow: %d failures, want 1", res.failed)
	}
	if res.wall < liveTimeout {
		t.Errorf("closed loop ended after %v, before the %v delivery deadline", res.wall, liveTimeout)
	}

	ph = newPhase(200, false)
	if res, err := runPhase(ph, false); err != nil || res.failed != 0 {
		t.Errorf("open loop without drops: %d failures, err %v", res.failed, err)
	}
}

// TestDigestsDeterministic runs each sim workload at the default and the
// held-out seed: the same seed gives the same digest twice and matches
// the stored reference, and the two seeds differ.
func TestDigestsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both simulations several times")
	}
	for _, wl := range []string{"ddos-overlay", "fattree-crowd"} {
		digest := map[int64]string{}
		for _, seed := range []int64{1, 4242} {
			ref, err := referenceDigest(wl, seed)
			if err != nil || ref == "" {
				t.Fatalf("%s seed %d: no reference digest (%v)", wl, seed, err)
			}
			rep, err := repeatSim(simSpecs[wl], seed, nil, false)
			if err != nil {
				t.Fatalf("%s seed %d: %v", wl, seed, err)
			}
			if rep.out.digest != ref {
				t.Errorf("%s seed %d: digest %s, reference %s\n%s", wl, seed, rep.out.digest, ref, rep.out.canon)
			}
			digest[seed] = rep.out.digest
		}
		again, err := repeatSim(simSpecs[wl], 1, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if again.out.digest != digest[1] {
			t.Errorf("%s seed 1: second run digest %s, first %s", wl, again.out.digest, digest[1])
		}
		if digest[1] == digest[4242] {
			t.Errorf("%s: seeds 1 and 4242 share digest %s", wl, digest[1])
		}
	}
}

func TestParseTraces(t *testing.T) {
	text := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.memmove
             scotch/internal/flowtable.(*Table).Insert
             scotch/internal/device.(*Switch).processRule
             main.(*simWorld).run
-----------+-------------------------------------------------------
      20ms   syscall.Syscall
             internal/poll.(*FD).Write
             net.(*conn).Write
             scotch/internal/ofnet.(*Conn).SendXID
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
     1.5s   scotch/internal/sim.(*Server[go.shape.struct { scotch/internal/device.conn int }]).completeService
             main.main
-----------+-------------------------------------------------------
      10ms   runtime.futex
             runtime.findRunnable
-----------+-------------------------------------------------------
`
	self, err := parseTraces([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"flowtable": 30 * time.Millisecond, "net": 20 * time.Millisecond,
		"gc": 10 * time.Millisecond, "sim": 1500 * time.Millisecond, "runtime": 10 * time.Millisecond,
	}
	if len(self) != len(want) {
		t.Errorf("layers %v, want %v", self, want)
	}
	for l, d := range want {
		if got := self[l]; got < d.Seconds()-1e-9 || got > d.Seconds()+1e-9 {
			t.Errorf("%s: %v s, want %v", l, got, d.Seconds())
		}
	}
}
