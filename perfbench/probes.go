package main

import (
	"time"

	"scotch/internal/flowtable"
	"scotch/internal/netaddr"
	"scotch/internal/openflow"
	"scotch/internal/packet"
	"scotch/internal/sim"
	"scotch/internal/topo"
)

// Layer probes time single public calls on state copied from a finished
// run. They run only in traced runs, after the timed window, and never
// touch live simulation state.

// probeTime is how long each probe loop runs.
const probeTime = 150 * time.Millisecond

// timeLoop calls fn in growing batches until probeTime has passed and
// returns the mean nanoseconds per call.
func timeLoop(fn func(i int)) float64 {
	n, calls := 64, 0
	start := time.Now()
	for {
		for i := 0; i < n; i++ {
			fn(calls + i)
		}
		calls += n
		if d := time.Since(start); d >= probeTime {
			return float64(d.Nanoseconds()) / float64(calls)
		}
		n *= 2
	}
}

// probeKeys returns up to 4096 flow keys the workload sent, in capture
// order, for lookups and codec shapes.
func (w *simWorld) probeKeys() []netaddr.FlowKey {
	var keys []netaddr.FlowKey
	for _, class := range w.classes {
		for _, f := range w.cap.Flows(class) {
			if len(keys) == 4096 {
				return keys
			}
			keys = append(keys, f.Key)
		}
	}
	return keys
}

// probeFlowtable fills fresh tables with a copy of the snapshot and times
// Insert of new exact rules (µs per call), Lookup of packets (ns per call:
// hits on the snapshot's exact rules, else misses on the workload's keys),
// and one Expire that drains every timed rule (ms).
func probeFlowtable(snap []*flowtable.Rule, keys []netaddr.FlowKey) (insertUs, lookupNs, expireMs float64) {
	fill := func() *flowtable.Table {
		t := &flowtable.Table{}
		for _, r := range copyRules(snap) {
			if err := t.Insert(r); err != nil {
				panic(err) // unlimited capacity cannot be full
			}
		}
		return t
	}
	var pkts []*packet.Packet
	var latest sim.Time
	for _, r := range snap {
		if k, ok := exactKey(&r.Match); ok && len(pkts) < 4096 {
			pkts = append(pkts, keyPacket(k))
		}
		latest = max(latest, r.LastHit, r.Installed)
	}
	if len(pkts) == 0 {
		for _, k := range keys {
			pkts = append(pkts, keyPacket(k))
		}
	}

	// Insert: fresh exact rules, then remove them again so every timed
	// insert sees the snapshot's size.
	t := fill()
	const batch = 256
	fresh := make([]*flowtable.Rule, batch)
	isFresh := map[*flowtable.Rule]bool{}
	for i := range fresh {
		k := netaddr.FlowKey{Src: netaddr.MakeIPv4(198, 18, byte(i>>8), byte(i)), Dst: netaddr.MakeIPv4(198, 19, 0, 1),
			Proto: netaddr.ProtoTCP, SrcPort: uint16(40000 + i), DstPort: 80}
		fresh[i] = &flowtable.Rule{Priority: 100, Match: flowtable.ExactMatch(k),
			Instructions: openflow.Apply1(openflow.OutputAction(1)), IdleTimeout: 10 * time.Second}
		isFresh[fresh[i]] = true
	}
	var insertTotal time.Duration
	inserts := 0
	for insertTotal < probeTime {
		s := time.Now()
		for _, r := range fresh {
			if err := t.Insert(r); err != nil {
				panic(err)
			}
		}
		insertTotal += time.Since(s)
		inserts += batch
		t.DeleteWhere(func(r *flowtable.Rule) bool { return isFresh[r] })
	}
	insertUs = insertTotal.Seconds() * 1e6 / float64(inserts)

	lookupNs = timeLoop(func(i int) { sinkRule = t.Lookup(pkts[i%len(pkts)], 1) })

	// Expire: one call at a time when every rule with a timeout is due.
	t = fill()
	s := time.Now()
	t.Expire(latest + time.Hour)
	expireMs = time.Since(s).Seconds() * 1e3
	return insertUs, lookupNs, expireMs
}

var sinkRule *flowtable.Rule

// exactKey returns the flow key of an exact 5-tuple match.
func exactKey(m *openflow.Match) (netaddr.FlowKey, bool) {
	k := netaddr.FlowKey{Src: m.IPv4Src, Dst: m.IPv4Dst, Proto: m.IPProto}
	switch m.IPProto {
	case netaddr.ProtoTCP:
		k.SrcPort, k.DstPort = m.TCPSrc, m.TCPDst
	case netaddr.ProtoUDP:
		k.SrcPort, k.DstPort = m.UDPSrc, m.UDPDst
	}
	want := flowtable.ExactMatch(k)
	return k, m.Equal(&want)
}

// keyPacket builds the 64-byte packet a workload sends for a flow key.
func keyPacket(k netaddr.FlowKey) *packet.Packet {
	if k.Proto == netaddr.ProtoUDP {
		return packet.NewUDP(k.Src, k.Dst, k.SrcPort, k.DstPort, 22)
	}
	return packet.NewTCP(k.Src, k.Dst, k.SrcPort, k.DstPort, packet.FlagSYN)
}

// probePaths times Network.Path over the workload's queries (µs per call).
func probePaths(n *topo.Network, qs []pathQuery) float64 {
	if len(qs) == 0 {
		return 0
	}
	return timeLoop(func(i int) {
		q := qs[i%len(qs)]
		if _, ok := n.Path(q.from, q.dst); !ok {
			panic("perfbench: path probe found no path")
		}
	}) / 1e3
}

// codecShapes returns the reactive FlowMod and the PacketIn a new flow
// with key k produces.
func codecShapes(k netaddr.FlowKey) (*openflow.FlowMod, *openflow.PacketIn) {
	data := keyPacket(k).Marshal()
	fm := &openflow.FlowMod{Command: openflow.FlowAdd, Priority: 100, IdleTimeout: 10,
		BufferID: 0xffffffff, Match: flowtable.ExactMatch(k),
		Instructions: openflow.Apply1(openflow.OutputAction(2))}
	pin := &openflow.PacketIn{BufferID: 0xffffffff, TotalLen: uint16(len(data)),
		Reason: openflow.ReasonNoMatch, Match: openflow.Match{Fields: openflow.FieldInPort, InPort: 1}, Data: data}
	return fm, pin
}

// probeCodec times openflow.Marshal and Unmarshal over the FlowMod and
// PacketIn shapes (ns per message) and packet.Parse of the punted bytes.
func probeCodec(fm *openflow.FlowMod, pin *openflow.PacketIn) (marshalNs, unmarshalNs, parseNs float64) {
	msgs := []openflow.Message{fm, pin}
	wire := make([][]byte, len(msgs))
	for i, m := range msgs {
		b, err := openflow.Marshal(m, 1)
		if err != nil {
			panic(err)
		}
		wire[i] = b
	}
	marshalNs = timeLoop(func(i int) {
		b, err := openflow.Marshal(msgs[i%2], uint32(i))
		if err != nil {
			panic(err)
		}
		sinkBytes = b
	})
	unmarshalNs = timeLoop(func(i int) {
		m, _, err := openflow.Unmarshal(wire[i%2])
		if err != nil {
			panic(err)
		}
		sinkMsg = m
	})
	parseNs = timeLoop(func(i int) {
		p, err := packet.Parse(pin.Data)
		if err != nil {
			panic(err)
		}
		sinkPkt = p
	})
	return marshalNs, unmarshalNs, parseNs
}

var (
	sinkBytes []byte
	sinkMsg   openflow.Message
	sinkPkt   *packet.Packet
)
