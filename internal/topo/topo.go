package topo

import (
	"fmt"
	"time"

	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/sim"
)

// Attach records where a host connects to the switch fabric.
type Attach struct {
	DPID uint64
	Port uint32
}

// edge is one direction of a switch-switch adjacency.
type edge struct {
	from, to uint64
	outPort  uint32
	cost     float64
}

// Network is a simulated topology plus the indexes the controller needs.
type Network struct {
	// Eng is the engine every node of the network runs on.
	Eng *sim.Engine

	switches map[uint64]*device.Switch
	byName   map[string]*device.Switch
	hosts    map[netaddr.IPv4]*device.Host
	attach   map[netaddr.IPv4]Attach

	// edges is the switch graph, both directions of every link in link
	// order; routes is its dense form with the shortest-path trees
	// queried so far, built on the first query and dropped by every call
	// that changes the graph.
	edges  []edge
	routes *routes

	// Link registries for fault injection: direct switch-switch links
	// keyed by both dpid orders, and host access links keyed by host IP.
	swLinks   map[[2]uint64]*device.Link
	hostLinks map[netaddr.IPv4]*device.Link

	nextDPID uint64
	nextPort map[uint64]uint32
	nextMAC  uint32

	// hop1 caches Path's single-hop result (switch already attached to
	// the destination) per destination IP — the common case on delivery
	// vSwitches, hit once per admitted flow. Entries are exact-capacity
	// so a caller's append copies instead of aliasing; AttachHost
	// invalidates the cache.
	hop1 map[netaddr.IPv4][]Hop
}

// New returns an empty network on the given engine.
func New(eng *sim.Engine) *Network {
	return &Network{
		Eng:       eng,
		switches:  make(map[uint64]*device.Switch),
		byName:    make(map[string]*device.Switch),
		hosts:     make(map[netaddr.IPv4]*device.Host),
		attach:    make(map[netaddr.IPv4]Attach),
		swLinks:   make(map[[2]uint64]*device.Link),
		hostLinks: make(map[netaddr.IPv4]*device.Link),
		nextPort:  make(map[uint64]uint32),
	}
}

// AddSwitch creates a switch with an automatically assigned datapath id.
func (n *Network) AddSwitch(name string, prof device.Profile) *device.Switch {
	if _, ok := n.byName[name]; ok {
		panic(fmt.Sprintf("topo: duplicate switch %q", name))
	}
	n.nextDPID++
	sw := device.NewSwitch(n.Eng, name, n.nextDPID, prof)
	sw.LocalIP = netaddr.MakeIPv4(192, 168, byte(n.nextDPID>>8), byte(n.nextDPID))
	n.switches[sw.DPID] = sw
	n.byName[name] = sw
	n.nextPort[sw.DPID] = 1
	n.routes = nil
	return sw
}

// AddHost creates a host with an automatically assigned MAC address.
func (n *Network) AddHost(name string, ip netaddr.IPv4) *device.Host {
	n.nextMAC++
	h := device.NewHost(n.Eng, name, ip, netaddr.MakeMAC(n.nextMAC))
	n.hosts[ip] = h
	return h
}

// Switch looks a switch up by datapath id.
func (n *Network) Switch(dpid uint64) *device.Switch { return n.switches[dpid] }

// SwitchByName looks a switch up by name.
func (n *Network) SwitchByName(name string) *device.Switch { return n.byName[name] }

// Switches returns all switches keyed by datapath id.
func (n *Network) Switches() map[uint64]*device.Switch { return n.switches }

// Host looks a host up by IP.
func (n *Network) Host(ip netaddr.IPv4) *device.Host { return n.hosts[ip] }

// Hosts returns all hosts keyed by IP.
func (n *Network) Hosts() map[netaddr.IPv4]*device.Host { return n.hosts }

// HostAttach returns where the host with the given IP attaches.
func (n *Network) HostAttach(ip netaddr.IPv4) (Attach, bool) {
	a, ok := n.attach[ip]
	return a, ok
}

func (n *Network) allocPort(sw *device.Switch) uint32 {
	p := n.nextPort[sw.DPID]
	n.nextPort[sw.DPID] = p + 1
	return p
}

// LinkSwitchesVia connects two switches through an inline two-port node
// (e.g. a firewall on a wire): a links to via, via links to b, and the
// path graph treats a-b as adjacent with traffic transiting the node.
// Returns a's port toward via and b's port toward via.
func (n *Network) LinkSwitchesVia(a *device.Switch, via device.Node, b *device.Switch, cfg device.LinkConfig) (uint32, uint32) {
	pa, pb := n.allocPort(a), n.allocPort(b)
	device.Connect(a, pa, via, 1, cfg)
	device.Connect(via, 2, b, pb, cfg)
	n.addEdges(a.DPID, b.DPID, pa, pb, 2*linkCost(cfg))
	return pa, pb
}

// LinkSwitches connects two switches with auto-assigned port numbers and
// records the adjacency for path computation. It returns the two port ids.
func (n *Network) LinkSwitches(a, b *device.Switch, cfg device.LinkConfig) (uint32, uint32) {
	pa, pb := n.allocPort(a), n.allocPort(b)
	l := device.Connect(a, pa, b, pb, cfg)
	n.swLinks[[2]uint64{a.DPID, b.DPID}] = l
	n.swLinks[[2]uint64{b.DPID, a.DPID}] = l
	n.addEdges(a.DPID, b.DPID, pa, pb, linkCost(cfg))
	return pa, pb
}

// addEdges records both directions of an a-b link and drops the routes
// computed over the old graph.
func (n *Network) addEdges(a, b uint64, pa, pb uint32, cost float64) {
	n.edges = append(n.edges,
		edge{from: a, to: b, outPort: pa, cost: cost},
		edge{from: b, to: a, outPort: pb, cost: cost})
	n.routes = nil
}

// SwitchLink returns the direct link between two switches created by
// LinkSwitches, in either order, or nil when the switches are not
// directly linked (links through a via node are not registered).
func (n *Network) SwitchLink(a, b uint64) *device.Link {
	return n.swLinks[[2]uint64{a, b}]
}

// HostLink returns the access link of the host with the given IP, or nil.
func (n *Network) HostLink(ip netaddr.IPv4) *device.Link {
	return n.hostLinks[ip]
}

// AttachHost connects a host to a switch with an auto-assigned switch port
// and records the attachment. It returns the switch-side port id.
func (n *Network) AttachHost(h *device.Host, sw *device.Switch, cfg device.LinkConfig) uint32 {
	p := n.allocPort(sw)
	n.hostLinks[h.IP] = device.Connect(sw, p, h, 1, cfg)
	n.attach[h.IP] = Attach{DPID: sw.DPID, Port: p}
	n.hop1 = nil // attachment changed; drop cached single-hop paths
	return p
}

func linkCost(cfg device.LinkConfig) float64 {
	c := cfg.Delay.Seconds()
	if c == 0 {
		c = 1e-6
	}
	return c
}

// Hop is one forwarding step of a computed path. InPort, when nonzero,
// constrains the installed rule to packets arriving on that port — used
// for the switch downstream of a middlebox, whose per-flow rule must only
// apply to packets returning from the middlebox.
type Hop struct {
	DPID    uint64
	OutPort uint32
	InPort  uint32
}

// Path computes a shortest path (by link delay) from the switch with dpid
// from to the host with the given IP. The returned hops include the final
// host-facing port. ok is false when no path exists. The result may be
// shared with later calls and must not be modified; copy it before
// editing a hop.
func (n *Network) Path(from uint64, dstIP netaddr.IPv4) ([]Hop, bool) {
	at, ok := n.attach[dstIP]
	if !ok {
		return nil, false
	}
	if from == at.DPID {
		h, ok := n.hop1[dstIP]
		if !ok {
			h = make([]Hop, 1)
			h[0] = Hop{DPID: at.DPID, OutPort: at.Port}
			if n.hop1 == nil {
				n.hop1 = make(map[netaddr.IPv4][]Hop)
			}
			n.hop1[dstIP] = h
		}
		return h, true
	}
	r, rev, ok := n.route(from, at.DPID)
	if !ok {
		return nil, false
	}
	hops := r.appendHops(make([]Hop, 0, len(rev)+1), rev)
	return append(hops, Hop{DPID: at.DPID, OutPort: at.Port}), true
}

// PathVia computes a path from switch from to dstIP that traverses the
// given waypoint switches in order (the policy-consistency constraint of
// paper §5.4: the physical path must cross the same middlebox-attached
// switches as the overlay path). Like Path's, the result is read-only.
func (n *Network) PathVia(from uint64, via []uint64, dstIP netaddr.IPv4) ([]Hop, bool) {
	cur := from
	var out []Hop
	for _, w := range via {
		if cur == w {
			continue
		}
		r, rev, ok := n.route(cur, w)
		if !ok {
			return nil, false
		}
		out = r.appendHops(out, rev)
		cur = w
	}
	tail, ok := n.Path(cur, dstIP)
	if !ok {
		return nil, false
	}
	return append(out, tail...), true
}

// SwitchPath returns hops from switch a through the fabric, ending with
// the hop whose OutPort leads into switch b (b itself emits no hop). Like
// Path's, the result is read-only.
func (n *Network) SwitchPath(a, b uint64) ([]Hop, bool) {
	if a == b {
		return nil, true
	}
	r, rev, ok := n.route(a, b)
	if !ok {
		return nil, false
	}
	return r.appendHops(make([]Hop, 0, len(rev)), rev), true
}

// PathDelay sums the nominal link delays along a switch-to-switch path,
// used to configure overlay tunnels with realistic underlay latency.
func (n *Network) PathDelay(a, b uint64) (time.Duration, bool) {
	if a == b {
		return 0, true
	}
	r, rev, ok := n.route(a, b)
	if !ok {
		return 0, false
	}
	var total float64
	for i := len(rev) - 1; i >= 0; i-- { // hop order, from a
		total += r.out[rev[i]].cost
	}
	return time.Duration(total * float64(time.Second)), true
}
