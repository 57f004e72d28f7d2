package scotch

import (
	"testing"
	"time"

	"scotch/internal/controller"
	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/sim"
	"scotch/internal/topo"
)

// TestPolicyPathLeavesSharedHopUntouched routes through a middlebox whose
// downstream switch S_D is the server's own attachment switch. The policy
// path pins its S_D hop to the middlebox port; a later plain Path from
// S_D must not inherit that pin.
func TestPolicyPathLeavesSharedHopUntouched(t *testing.T) {
	eng := sim.New(1)
	net := topo.New(eng)
	prof := device.Pica8Profile()
	s0 := net.AddSwitch("s0", prof)
	su := net.AddSwitch("su", prof)
	sd := net.AddSwitch("sd", prof)
	link := device.LinkConfig{Delay: 100 * time.Microsecond}
	net.LinkSwitches(s0, su, link)
	suOut, sdIn := net.LinkSwitchesVia(su, device.NewFirewall(eng, "fw", 0), sd, link)
	server := net.AddHost("server", netaddr.MakeIPv4(10, 0, 1, 1))
	port := net.AttachHost(server, sd, link)

	app := New(controller.New(eng, net), DefaultConfig())
	app.AddMiddlebox("fw", su.DPID, sd.DPID, suOut, sdIn)
	key := netaddr.FlowKey{Src: netaddr.MakeIPv4(10, 0, 0, 1), Dst: server.IP,
		Proto: netaddr.ProtoTCP, SrcPort: 6000, DstPort: 80}

	// Warm the single-hop cache first, as an earlier flow would.
	if _, ok := net.Path(sd.DPID, server.IP); !ok {
		t.Fatal("no path from S_D")
	}
	hops, _, ok := app.policyPathVia(s0.DPID, key, []string{"fw"})
	if !ok {
		t.Fatal("no policy path")
	}
	last := hops[len(hops)-1]
	if last.DPID != sd.DPID || last.OutPort != port || last.InPort != sdIn {
		t.Fatalf("policy S_D hop = %+v, want out %d in %d", last, port, sdIn)
	}
	plain, ok := net.Path(sd.DPID, server.IP)
	if !ok || len(plain) != 1 {
		t.Fatalf("plain path from S_D = %v ok=%v", plain, ok)
	}
	if plain[0] != (topo.Hop{DPID: sd.DPID, OutPort: port}) {
		t.Fatalf("plain path from S_D = %+v: pinned to the middlebox port", plain[0])
	}
}
