package topo_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"scotch/internal/capture"
	"scotch/internal/netaddr"
	"scotch/internal/scotch"
	"scotch/internal/sim"
	"scotch/internal/topo"
	"scotch/internal/workload"
)

// fatTreeRun is one fat-tree deployment that routed a flow between every
// ordered pair of pods.
type fatTreeRun struct {
	setup, route time.Duration
	heapBytes    uint64 // live heap of the built deployment
	flows, lost  int
	stallDrops   uint64 // data packets dropped during TCAM writes
	app          *scotch.App
	net          *topo.Network
}

// runFatTree builds a k-ary fat-tree (one host per edge) under the full
// Scotch deployment, then starts one single-packet flow between every
// ordered pair of pods, 5 ms apart, each from one edge switch to an edge
// of the other pod, and runs until they have all been delivered.
func runFatTree(tb testing.TB, k int) fatTreeRun {
	tb.Helper()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc

	t0 := time.Now()
	eng := sim.New(int64(k))
	cfg := topo.DefaultFatTreeConfig(k)
	cfg.HostsPerEdge = 1
	ft := topo.NewFatTree(eng, cfg)
	_, app, err := scotch.NewFatTreeDeployment(ft, scotch.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	r := fatTreeRun{setup: time.Since(t0), app: app, net: ft.Net}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.heapBytes = ms.HeapAlloc - heap0

	t1 := time.Now()
	cp := capture.New(eng)
	for _, hosts := range ft.Hosts {
		for _, h := range hosts {
			cp.Attach(h)
		}
	}
	for p := 0; p < k; p++ {
		src := ft.Hosts[p][(p+1)%len(ft.Hosts[p])]
		em := workload.NewEmitter(eng, src, cp)
		for q := 0; q < k; q++ {
			if q == p {
				continue
			}
			dst := ft.Hosts[q][p%len(ft.Hosts[q])]
			hops, ok := ft.Net.Path(ft.EdgeOf[src.IP], dst.IP)
			if !ok || len(hops) != 5 {
				tb.Fatalf("pod %d -> pod %d: path %v ok=%v, want 5 hops", p, q, hops, ok)
			}
			f := workload.Flow{Packets: 1, Class: "pods", Key: netaddr.FlowKey{
				Src: src.IP, Dst: dst.IP, Proto: netaddr.ProtoTCP, SrcPort: uint16(1000 + q), DstPort: 80}}
			eng.Schedule(time.Duration(r.flows)*5*time.Millisecond, func() { em.Start(f) })
			r.flows++
		}
	}
	eng.RunUntil(time.Duration(r.flows)*5*time.Millisecond + 2*time.Second)
	r.route = time.Since(t1)
	for _, f := range cp.Flows("pods") {
		if !f.Delivered() {
			r.lost++
		}
	}
	for _, sw := range ft.Net.Switches() {
		r.stallDrops += sw.Stats.StallDrops
	}
	return r
}

// TestFatTreeK32DeploymentRoutes builds a k=32 fat-tree (1344 switches
// with the vSwitch pool) under the full deployment and routes one flow
// between every ordered pair of pods through a core switch.
func TestFatTreeK32DeploymentRoutes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1344-switch fabric")
	}
	r := runFatTree(t, 32)
	if r.app.Stats.PhysicalAdmitted != uint64(r.flows) || r.app.Stats.NoPath != 0 {
		t.Fatalf("admitted %d of %d flows, %d without a path",
			r.app.Stats.PhysicalAdmitted, r.flows, r.app.Stats.NoPath)
	}
	// Pica8 switches drop data packets while a TCAM write is in flight;
	// those are the only losses allowed.
	if uint64(r.lost) > r.stallDrops {
		t.Fatalf("%d of %d flows undelivered, only %d packets lost to TCAM stalls",
			r.lost, r.flows, r.stallDrops)
	}
}

// BenchmarkFatTreeScale regenerates DESIGN.md's fat-tree scaling table:
// per k, the set-up time (NewFatTree plus NewFatTreeDeployment), the live
// heap of the built deployment, the time to route one flow per ordered
// pod pair, and the route cache at the end. Run it one iteration per k:
//
//	go test -run '^$' -bench FatTreeScale -benchtime 1x ./internal/topo/
func BenchmarkFatTreeScale(b *testing.B) {
	for _, k := range []int{8, 12, 16, 32, 48} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var r fatTreeRun
			for i := 0; i < b.N; i++ {
				r = runFatTree(b, k)
			}
			trees, treeBytes, graphBytes := topo.RouteCache(r.net)
			b.ReportMetric(r.setup.Seconds(), "setup_s")
			b.ReportMetric(float64(r.heapBytes)/1e6, "heap_MB")
			b.ReportMetric(r.route.Seconds(), "route_s")
			b.ReportMetric(float64(r.flows), "flows")
			b.ReportMetric(float64(r.lost), "lost")
			b.ReportMetric(float64(trees), "trees")
			b.ReportMetric(float64(treeBytes)/1e6, "trees_MB")
			b.ReportMetric(float64(graphBytes)/1e6, "graph_MB")
		})
	}
}
