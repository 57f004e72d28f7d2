package topo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/sim"
)

// oracle is the map-based O(V^2) search the tree cache replaced, kept
// verbatim as the reference: search rebuilds its maps on every query and
// stops at the target. switchPath memoizes search per pair so Path and
// PathDelay reuse it; that changes no answer.
type oracle struct {
	n    *Network
	adj  map[uint64][]edge
	memo map[[2]uint64]oracleResult
}

type oracleResult struct {
	hops []Hop
	ok   bool
}

func newOracle(n *Network) *oracle {
	o := &oracle{n: n, adj: make(map[uint64][]edge), memo: make(map[[2]uint64]oracleResult)}
	for _, e := range n.edges {
		o.adj[e.from] = append(o.adj[e.from], e)
	}
	return o
}

func (o *oracle) switchPath(a, b uint64) ([]Hop, bool) {
	r, ok := o.memo[[2]uint64{a, b}]
	if !ok {
		r.hops, r.ok = o.search(a, b)
		o.memo[[2]uint64{a, b}] = r
	}
	return slices.Clone(r.hops), r.ok
}

func (o *oracle) search(a, b uint64) ([]Hop, bool) {
	if a == b {
		return nil, true
	}
	dist := map[uint64]float64{a: 0}
	type prevHop struct {
		from    uint64
		outPort uint32
	}
	prev := map[uint64]prevHop{}
	visited := map[uint64]bool{}
	for {
		best := uint64(0)
		bestD := math.Inf(1)
		found := false
		for node, d := range dist {
			if visited[node] {
				continue
			}
			if d < bestD || (d == bestD && (!found || node < best)) {
				best, bestD, found = node, d, true
			}
		}
		if !found {
			return nil, false
		}
		if best == b {
			break
		}
		visited[best] = true
		for _, e := range o.adj[best] {
			nd := bestD + e.cost
			if d, ok := dist[e.to]; !ok || nd < d {
				dist[e.to] = nd
				prev[e.to] = prevHop{from: best, outPort: e.outPort}
			}
		}
	}
	var rev []Hop
	for cur := b; cur != a; {
		ph, ok := prev[cur]
		if !ok {
			return nil, false
		}
		rev = append(rev, Hop{DPID: ph.from, OutPort: ph.outPort})
		cur = ph.from
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

func (o *oracle) path(from uint64, dstIP netaddr.IPv4) ([]Hop, bool) {
	at, ok := o.n.attach[dstIP]
	if !ok {
		return nil, false
	}
	if from == at.DPID {
		return []Hop{{DPID: at.DPID, OutPort: at.Port}}, true
	}
	hops, ok := o.switchPath(from, at.DPID)
	if !ok {
		return nil, false
	}
	return append(hops, Hop{DPID: at.DPID, OutPort: at.Port}), true
}

func (o *oracle) pathDelay(a, b uint64) (time.Duration, bool) {
	if a == b {
		return 0, true
	}
	hops, ok := o.switchPath(a, b)
	if !ok {
		return 0, false
	}
	var total float64
	for _, h := range hops {
		for _, e := range o.adj[h.DPID] {
			if e.outPort == h.OutPort {
				total += e.cost
				break
			}
		}
	}
	return time.Duration(total * float64(time.Second)), true
}

// sortedDPIDs lists the network's switches in dpid order.
func sortedDPIDs(n *Network) []uint64 {
	var ids []uint64
	for id := range n.switches {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// checkAgainstOracle compares SwitchPath and PathDelay for every ordered
// switch pair and Path for every (switch, host) pair. It returns how many
// pairs are connected, so callers can tell a vacuous graph.
func checkAgainstOracle(t *testing.T, n *Network) int {
	t.Helper()
	o := newOracle(n)
	ids := sortedDPIDs(n)
	var ips []netaddr.IPv4
	for ip := range n.attach {
		ips = append(ips, ip)
	}
	slices.Sort(ips)
	connected := 0
	for _, a := range ids {
		for _, b := range ids {
			want, wok := o.switchPath(a, b)
			got, gok := n.SwitchPath(a, b)
			if wok != gok || !slices.Equal(want, got) {
				t.Fatalf("SwitchPath(%d, %d) = %v %v, want %v %v", a, b, got, gok, want, wok)
			}
			if wok {
				connected++
			}
			wd, wok := o.pathDelay(a, b)
			gd, gok := n.PathDelay(a, b)
			if wok != gok || wd != gd {
				t.Fatalf("PathDelay(%d, %d) = %v %v, want %v %v", a, b, gd, gok, wd, wok)
			}
		}
		for _, ip := range ips {
			want, wok := o.path(a, ip)
			got, gok := n.Path(a, ip)
			if wok != gok || !slices.Equal(want, got) {
				t.Fatalf("Path(%d, %v) = %v %v, want %v %v", a, ip, got, gok, want, wok)
			}
		}
	}
	return connected
}

func TestRoutesMatchOracleFatTree(t *testing.T) {
	for _, k := range []int{4, 8} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			ft := NewFatTree(sim.New(1), DefaultFatTreeConfig(k))
			sw, _ := FatTreeCapacity(k)
			sw += k * ft.Cfg.VSwitchesPerPod
			if got := checkAgainstOracle(t, ft.Net); got != sw*sw {
				t.Fatalf("%d connected pairs, want %d", got, sw*sw)
			}
		})
	}
}

func TestRoutesMatchOracleLeafSpine(t *testing.T) {
	ls := NewLeafSpine(sim.New(1), DefaultLeafSpineConfig())
	if checkAgainstOracle(t, ls.Net) == 0 {
		t.Fatal("no connected pairs")
	}
}

func TestRoutesMatchOracleInlineChain(t *testing.T) {
	// A chain whose every other link transits an inline firewall, plus a
	// host on each switch; the via links cost twice their delay.
	eng := sim.New(1)
	n := New(eng)
	var sws []*device.Switch
	for i := 0; i < 6; i++ {
		sw := n.AddSwitch(fmt.Sprintf("s%d", i), fastProfile())
		sws = append(sws, sw)
		h := n.AddHost(fmt.Sprintf("h%d", i), netaddr.MakeIPv4(10, 0, 0, byte(i+1)))
		n.AttachHost(h, sw, device.LinkConfig{})
	}
	cfg := device.LinkConfig{Delay: time.Millisecond}
	for i := 1; i < len(sws); i++ {
		if i%2 == 0 {
			n.LinkSwitchesVia(sws[i-1], device.NewFirewall(eng, fmt.Sprintf("fw%d", i), 0), sws[i], cfg)
		} else {
			n.LinkSwitches(sws[i-1], sws[i], cfg)
		}
	}
	// A direct bypass of s1..s3 with the inline route's nominal delay.
	n.LinkSwitches(sws[1], sws[3], device.LinkConfig{Delay: 3 * time.Millisecond})
	if got := checkAgainstOracle(t, n); got != len(sws)*len(sws) {
		t.Fatalf("%d connected pairs", got)
	}
}

func TestRoutesMatchOracleParallelLinks(t *testing.T) {
	// Three a-b links: two tie, the third is slower. The first-made of
	// the tied links carries the path.
	n := New(sim.New(1))
	a := n.AddSwitch("a", fastProfile())
	b := n.AddSwitch("b", fastProfile())
	n.LinkSwitches(a, b, device.LinkConfig{Delay: 2 * time.Millisecond})
	pa, _ := n.LinkSwitches(a, b, device.LinkConfig{Delay: time.Millisecond})
	n.LinkSwitches(a, b, device.LinkConfig{Delay: time.Millisecond})
	h := n.AddHost("h", netaddr.MakeIPv4(10, 0, 0, 1))
	n.AttachHost(h, b, device.LinkConfig{})
	checkAgainstOracle(t, n)
	if hops, _ := n.SwitchPath(a.DPID, b.DPID); len(hops) != 1 || hops[0].OutPort != pa {
		t.Fatalf("a->b = %v, want out port %d", hops, pa)
	}
}

func TestRoutesMatchOracleDisconnected(t *testing.T) {
	// Two islands plus an isolated switch and a host on each island.
	n := New(sim.New(1))
	var sws []*device.Switch
	for i := 0; i < 5; i++ {
		sws = append(sws, n.AddSwitch(fmt.Sprintf("s%d", i), fastProfile()))
	}
	cfg := device.LinkConfig{Delay: time.Millisecond}
	n.LinkSwitches(sws[0], sws[1], cfg)
	n.LinkSwitches(sws[2], sws[3], cfg)
	n.AttachHost(n.AddHost("h0", netaddr.MakeIPv4(10, 0, 0, 1)), sws[0], cfg)
	n.AttachHost(n.AddHost("h1", netaddr.MakeIPv4(10, 0, 0, 2)), sws[3], cfg)
	// Connected: each island's 2x2 pairs plus the isolated switch to itself.
	if got := checkAgainstOracle(t, n); got != 9 {
		t.Fatalf("%d connected pairs, want 9", got)
	}
	if _, ok := n.SwitchPath(sws[0].DPID, 999); ok {
		t.Fatal("path to an unknown dpid")
	}
	if _, ok := n.PathDelay(999, sws[0].DPID); ok {
		t.Fatal("delay from an unknown dpid")
	}
}

func TestRoutesMatchOracleRandom(t *testing.T) {
	// Integer-millisecond delays (zero included, which costs 1e-6) make
	// equal-cost ties common.
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.New(seed)
		n := New(eng)
		nsw := 4 + rng.Intn(20)
		var sws []*device.Switch
		for i := 0; i < nsw; i++ {
			sws = append(sws, n.AddSwitch(fmt.Sprintf("s%d", i), fastProfile()))
		}
		for i, m := 0, rng.Intn(3*nsw); i < m; i++ {
			a, b := sws[rng.Intn(nsw)], sws[rng.Intn(nsw)]
			if a == b {
				continue
			}
			cfg := device.LinkConfig{Delay: time.Duration(rng.Intn(4)) * time.Millisecond}
			if rng.Intn(5) == 0 {
				n.LinkSwitchesVia(a, device.NewFirewall(eng, fmt.Sprintf("fw%d", i), 0), b, cfg)
			} else {
				n.LinkSwitches(a, b, cfg)
			}
		}
		for i := 0; i < 3; i++ {
			h := n.AddHost(fmt.Sprintf("h%d", i), netaddr.MakeIPv4(10, 1, 0, byte(i+1)))
			n.AttachHost(h, sws[rng.Intn(nsw)], device.LinkConfig{})
		}
		checkAgainstOracle(t, n)
	}
}

func TestRoutesInvalidatedByShortcut(t *testing.T) {
	ln := NewLinear(sim.New(1), 4, fastProfile(), time.Millisecond)
	n := ln.Net
	first, last := ln.Switches[0], ln.Switches[3]
	if hops, ok := n.Path(first.DPID, ln.Right.IP); !ok || len(hops) != 4 {
		t.Fatalf("chain path = %v ok=%v", hops, ok)
	}
	pa, _ := n.LinkSwitches(first, last, device.LinkConfig{Delay: time.Millisecond})
	hops, ok := n.Path(first.DPID, ln.Right.IP)
	if !ok || len(hops) != 2 || hops[0].OutPort != pa || hops[1].DPID != last.DPID {
		t.Fatalf("path after shortcut = %v ok=%v, want out port %d", hops, ok, pa)
	}
	if d, _ := n.PathDelay(first.DPID, last.DPID); d != time.Millisecond {
		t.Fatalf("delay after shortcut = %v", d)
	}
	checkAgainstOracle(t, n)
}

func TestRoutesInvalidatedByNewSwitch(t *testing.T) {
	ln := NewLinear(sim.New(1), 3, fastProfile(), time.Millisecond)
	n := ln.Net
	src := ln.Switches[0].DPID
	if _, ok := n.SwitchPath(src, ln.Switches[2].DPID); !ok {
		t.Fatal("no chain path")
	}
	sw := n.AddSwitch("late", fastProfile())
	if _, ok := n.SwitchPath(src, sw.DPID); ok {
		t.Fatal("unlinked switch reachable")
	}
	n.LinkSwitches(ln.Switches[2], sw, device.LinkConfig{Delay: time.Millisecond})
	h := n.AddHost("late-h", netaddr.MakeIPv4(10, 9, 9, 9))
	n.AttachHost(h, sw, device.LinkConfig{})
	hops, ok := n.Path(src, h.IP)
	if !ok || len(hops) != 4 || hops[2].DPID != ln.Switches[2].DPID || hops[3].DPID != sw.DPID {
		t.Fatalf("path to late switch = %v ok=%v", hops, ok)
	}
	if d, _ := n.PathDelay(src, sw.DPID); d != 3*time.Millisecond {
		t.Fatalf("delay to late switch = %v", d)
	}
	checkAgainstOracle(t, n)
}
