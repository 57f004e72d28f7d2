package workload

import (
	"scotch/internal/capture"
	"scotch/internal/device"
	"scotch/internal/netaddr"
	"scotch/internal/packet"
	"scotch/internal/sim"
)

// Responder makes a host answer traffic, turning one-way generators into
// request/response exchanges: every delivered packet triggers one response
// back to its sender (a SYN gets a SYN|ACK, everything else an ACK). The
// response direction is a *new flow* to the network — the case that makes
// bidirectional traffic interesting under control-plane overload.
type Responder struct {
	eng   *sim.Engine
	host  *device.Host
	cap   *capture.Capture
	class string

	flows map[netaddr.FlowKey]uint64 // reverse key -> capture flow id
	Sent  uint64

	// RespondTo, when set, limits which sources are answered. A real
	// service answers everything — and thereby amplifies spoofed-source
	// attacks into backscatter (observable by leaving this nil); tests
	// and well-filtered deployments restrict it.
	RespondTo func(src netaddr.IPv4) bool
}

// AttachResponder hooks a responder into the host's receive path, chaining
// any existing observer. Responses are registered with cap under class.
func AttachResponder(eng *sim.Engine, h *device.Host, cap *capture.Capture, class string) *Responder {
	r := &Responder{
		eng: eng, host: h, cap: cap, class: class,
		flows: make(map[netaddr.FlowKey]uint64),
	}
	prev := h.OnReceive
	h.OnReceive = func(pkt *packet.Packet, now sim.Time) {
		if prev != nil {
			prev(pkt, now)
		}
		r.respond(pkt)
	}
	return r
}

func (r *Responder) respond(pkt *packet.Packet) {
	if pkt.IP.Src == r.host.IP {
		return // don't answer our own traffic
	}
	if r.RespondTo != nil && !r.RespondTo(pkt.IP.Src) {
		return
	}
	key := pkt.FlowKey().Reverse()
	flags := uint8(packet.FlagACK)
	seq := 1
	if pkt.TCP != nil && pkt.TCP.Flags&packet.FlagSYN != 0 {
		flags = packet.FlagSYN | packet.FlagACK
		seq = 0
	}
	resp := packet.NewTCP(key.Src, key.Dst, key.SrcPort, key.DstPort, flags)
	if r.cap != nil {
		id, ok := r.flows[key]
		if !ok {
			id = r.cap.NewFlow(key, r.class, 1).ID
			r.flows[key] = id
		}
		resp.Meta.FlowID = id
		resp.Meta.Seq = seq
		resp.Meta.SentAt = r.eng.Now()
		r.cap.RecordSend(resp)
	}
	r.Sent++
	r.host.Send(resp)
}
