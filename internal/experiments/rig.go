package experiments

import (
	"fmt"
	"time"

	"scotch/internal/capture"
	"scotch/internal/controller"
	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/scotch"
	"scotch/internal/sim"
	"scotch/internal/topo"
	"scotch/internal/workload"
)

// rig is a single-edge-switch Scotch deployment: the paper's testbed plus
// a vSwitch pool, with any number of client-side hosts (each on its own
// ingress port) and servers (spread across delivery vSwitches).
type rig struct {
	eng     *sim.Engine
	net     *topo.Network
	edge    *device.Switch
	clients []*device.Host
	servers []*device.Host
	vs      []*device.Switch
	standby []*device.Switch
	c       *controller.Controller
	app     *scotch.App
	cap     *capture.Capture
}

type rigConfig struct {
	seed     int64
	cfg      scotch.Config
	nClients int
	nServers int
	nPrimary int
	nBackup  int
	// nStandby provisions extra vSwitches that are linked and connected
	// to the controller but left out of the mesh: spare capacity for the
	// elastic autoscaler to grow into.
	nStandby  int
	noOverlay bool // run the plain reactive baseline instead of Scotch
}

func newRig(rc rigConfig) *rig {
	eng := sim.New(rc.seed)
	net := topo.New(eng)
	edge := net.AddSwitch("edge", device.Pica8Profile())
	r := &rig{eng: eng, net: net, edge: edge}
	link := device.LinkConfig{Delay: 50 * time.Microsecond, RateBps: 1e9}

	var clientPorts []uint32
	for i := 0; i < rc.nClients; i++ {
		h := net.AddHost(fmt.Sprintf("c%d", i), netaddr.MakeIPv4(10, 0, 0, byte(10+i)))
		clientPorts = append(clientPorts, net.AttachHost(h, edge, link))
		r.clients = append(r.clients, h)
	}
	for i := 0; i < rc.nServers; i++ {
		h := net.AddHost(fmt.Sprintf("srv%d", i), netaddr.MakeIPv4(10, 0, 1, byte(10+i)))
		net.AttachHost(h, edge, link)
		r.servers = append(r.servers, h)
	}
	vsLink := device.LinkConfig{Delay: 20 * time.Microsecond, RateBps: 1e9}
	for i := 0; i < rc.nPrimary+rc.nBackup; i++ {
		vs := net.AddSwitch(fmt.Sprintf("vs%d", i), device.OVSProfile())
		net.LinkSwitches(edge, vs, vsLink)
		r.vs = append(r.vs, vs)
	}
	for i := 0; i < rc.nStandby; i++ {
		sb := net.AddSwitch(fmt.Sprintf("sb%d", i), device.OVSProfile())
		net.LinkSwitches(edge, sb, vsLink)
		r.standby = append(r.standby, sb)
	}

	r.c = controller.New(eng, net)
	if rc.noOverlay {
		controller.NewReactiveRouter(r.c)
		r.c.ConnectAll()
	} else {
		r.app = scotch.New(r.c, rc.cfg)
		for i, vs := range r.vs {
			r.app.AddVSwitch(vs.DPID, i >= rc.nPrimary)
		}
		for i, srv := range r.servers {
			primary := r.vs[i%rc.nPrimary].DPID
			var backup uint64
			if rc.nBackup > 0 {
				backup = r.vs[rc.nPrimary+(i%rc.nBackup)].DPID
			}
			r.app.AssignHost(srv.IP, primary, backup)
		}
		r.app.Protect(edge.DPID, clientPorts...)
		r.c.ConnectAll()
		if err := r.app.Build(); err != nil {
			panic(err)
		}
	}

	r.cap = capture.New(eng)
	for _, srv := range r.servers {
		r.cap.Attach(srv)
	}
	if tr := newRunTracer(); tr != nil {
		r.c.SetTracer(tr)
		edge.SetTracer(tr)
		for _, vs := range r.vs {
			vs.SetTracer(tr)
		}
		for _, sb := range r.standby {
			sb.SetTracer(tr)
		}
		for _, srv := range r.servers {
			traceDelivery(tr, srv)
		}
	}
	newRunObservatory(r)
	return r
}

func (r *rig) emitter(h *device.Host) *workload.Emitter {
	return workload.NewEmitter(r.eng, h, r.cap)
}
