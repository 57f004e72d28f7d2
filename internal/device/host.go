package device

import (
	"scotch/internal/netaddr"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// Host is an end host: it sources and sinks traffic on a single port.
type Host struct {
	name  string
	eng   *sim.Engine
	IP    netaddr.IPv4
	MAC   netaddr.MAC
	ports []*Port

	Received uint64
	Sent     uint64

	// OnReceive observes every packet delivered to this host.
	OnReceive func(pkt *packet.Packet, now sim.Time)
}

// NewHost creates a host with the given address.
func NewHost(eng *sim.Engine, name string, ip netaddr.IPv4, mac netaddr.MAC) *Host {
	return &Host{name: name, eng: eng, IP: ip, MAC: mac}
}

// Name implements Node.
func (h *Host) Name() string { return h.name }

// Proc implements Node.
func (h *Host) Proc() *sim.Engine { return h.eng }

func (h *Host) attachPort(p *Port) { h.ports = append(h.ports, p) }

func (h *Host) detachPort(p *Port) {
	for i, q := range h.ports {
		if q == p {
			h.ports = append(h.ports[:i], h.ports[i+1:]...)
			return
		}
	}
}

// Port returns the host's primary attachment port (the first connected),
// or nil. Additional ports terminate Scotch delivery tunnels.
func (h *Host) Port() *Port {
	if len(h.ports) == 0 {
		return nil
	}
	return h.ports[0]
}

// Receive implements Node.
func (h *Host) Receive(pkt *packet.Packet, _ *Port) {
	// Hosts accept anything addressed to them (or broadcast); stray
	// packets are dropped silently, as a NIC would.
	if pkt.IP.Dst != h.IP && !pkt.Eth.Dst.IsBroadcast() {
		return
	}
	h.Received++
	if h.OnReceive != nil {
		h.OnReceive(pkt, h.eng.Now())
	}
}

// Send stamps the packet with the host's source addresses and transmits it.
func (h *Host) Send(pkt *packet.Packet) {
	if len(h.ports) == 0 {
		return
	}
	pkt.Eth.Src = h.MAC
	h.Sent++
	h.ports[0].Send(pkt, 0)
}
