package experiments

import (
	"io"
	"time"

	"scotch/internal/netaddr"
	"scotch/internal/scotch"
	"scotch/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig11",
		Title: "Ingress-port differentiation under attack (reconstructed from §6 roadmap)",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Overlay control-plane capacity vs vSwitch pool size (reconstructed)",
		Run:   runFig12,
	})
	register(Experiment{
		ID:    "fig13",
		Title: "Large-flow migration moves bytes back to the physical network (reconstructed)",
		Run:   runFig13,
	})
	register(Experiment{
		ID:    "fig14",
		Title: "Extra relay delay of the overlay path (reconstructed)",
		Run:   runFig14,
	})
}

// runFig11 compares the client flow failure fraction with and without
// Scotch while an attacker on a different ingress port sweeps its rate.
// With Scotch, per-port queues isolate the attack (paper §5.2).
func runFig11(w io.Writer) error {
	rates := []float64{500, 1000, 2000, 3000, 3800}
	t := newTable(w, "attack_flows_per_s", "baseline_client_failure", "scotch_client_failure", "scotch_attack_failure")
	const dur = 15 * time.Second
	for _, ar := range rates {
		run := func(noOverlay bool) (float64, float64) {
			r := newRig(rigConfig{seed: 11, cfg: scotch.DefaultConfig(),
				nClients: 2, nServers: 1, nPrimary: 2, noOverlay: noOverlay})
			atk := workload.StartDDoS(r.emitter(r.clients[0]), r.servers[0].IP, ar)
			cli := workload.StartClient(r.emitter(r.clients[1]), r.servers[0].IP, 100, 1, 0)
			r.eng.RunUntil(dur)
			atk.Stop()
			cli.Stop()
			r.eng.RunUntil(dur + time.Second)
			return r.cap.FailureFraction("client"), r.cap.FailureFraction("attack")
		}
		base, _ := run(true)
		sc, scAtk := run(false)
		t.row(int(ar), base, sc, scAtk)
	}
	t.flush()
	return nil
}

// runFig12 grows the vSwitch pool under a fixed control-plane overload and
// reports the aggregate rate of successfully handled new flows: Scotch's
// elastic capacity scaling.
func runFig12(w io.Writer) error {
	t := newTable(w, "vswitches", "offered_flows_per_s", "handled_flows_per_s", "delivered_flows_per_s")
	const offered = 25000.0
	const dur = 5 * time.Second
	for _, n := range []int{1, 2, 3, 4, 6, 8} {
		cfg := scotch.DefaultConfig()
		// Expose the vSwitch OFA limit rather than the controller's own
		// per-switch pacing.
		cfg.OverlayInstallRate = 1e6
		cfg.FanOut = n
		r := newRig(rigConfig{seed: 12, cfg: cfg, nClients: 2, nServers: 8, nPrimary: n})
		// Two attackers spread over the servers to exercise every
		// delivery vSwitch.
		var gens []*workload.DDoS
		for i, cl := range r.clients {
			for j := 0; j < 4; j++ {
				srv := r.servers[(i*4+j)%len(r.servers)]
				gens = append(gens, workload.StartDDoS(r.emitter(cl), srv.IP, offered/8))
			}
		}
		r.eng.RunUntil(dur)
		for _, g := range gens {
			g.Stop()
		}
		r.eng.RunUntil(dur + time.Second)
		sent, delivered := r.cap.Counts("attack")
		handled := r.app.Stats.OverlayRouted + r.app.Stats.PhysicalAdmitted
		t.row(n, float64(sent)/dur.Seconds(), float64(handled)/dur.Seconds(),
			float64(delivered)/dur.Seconds())
	}
	t.flush()
	return nil
}

// runFig13 measures where an elephant's bytes land with and without
// migration: with the migrator on, the bulk of the bytes return to the
// physical network shortly after detection.
func runFig13(w io.Writer) error {
	t := newTable(w, "migration", "elephant_bytes_overlay", "elephant_bytes_physical",
		"physical_fraction", "elephants_migrated")
	const dur = 20 * time.Second
	for _, enabled := range []bool{false, true} {
		cfg := scotch.DefaultConfig()
		if !enabled {
			cfg.ElephantBytes = 1 << 40
		}
		r := newRig(rigConfig{seed: 13, cfg: cfg, nClients: 2, nServers: 1, nPrimary: 2})
		// Attack keeps the control path saturated so new flows take the
		// overlay.
		atk := workload.StartDDoS(r.emitter(r.clients[0]), r.servers[0].IP, 2000)
		// Five elephants from the client port; the port backlog pushes
		// them onto the overlay.
		em := r.emitter(r.clients[1])
		r.eng.Schedule(time.Second, func() {
			for i := 0; i < 40; i++ {
				em.Start(workload.Flow{Key: netaddr.FlowKey{
					Src: r.clients[1].IP, Dst: r.servers[0].IP, Proto: netaddr.ProtoTCP,
					SrcPort: uint16(2000 + i), DstPort: 80},
					Packets: 1, Class: "filler"})
			}
			for i := 0; i < 5; i++ {
				em.Start(workload.Flow{Key: netaddr.FlowKey{
					Src: r.clients[1].IP, Dst: r.servers[0].IP, Proto: netaddr.ProtoTCP,
					SrcPort: uint16(5000 + i), DstPort: 80},
					Packets: 6000, Interval: 2 * time.Millisecond, Size: 1000, Class: "elephant"})
			}
		})
		// Sample each elephant's delivered bytes every 100ms and attribute
		// the delta to the path the flow was on at that instant.
		var ovBytes, physBytes uint64
		lastBytes := map[netaddr.FlowKey]uint64{}
		sampler := r.eng.Every(100*time.Millisecond, func() {
			for _, f := range r.cap.Flows("elephant") {
				delta := f.BytesRecv - lastBytes[f.Key]
				lastBytes[f.Key] = f.BytesRecv
				fi := r.c.FlowDB.Lookup(f.Key)
				if fi != nil && fi.Migrated {
					physBytes += delta
				} else {
					ovBytes += delta
				}
			}
		})
		r.eng.RunUntil(dur)
		atk.Stop()
		r.eng.RunUntil(dur + time.Second)
		sampler.Stop()

		frac := 0.0
		if total := ovBytes + physBytes; total > 0 {
			frac = float64(physBytes) / float64(total)
		}
		mode := "off"
		if enabled {
			mode = "on"
		}
		t.row(mode, ovBytes, physBytes, frac, r.app.Stats.Migrated)
	}
	t.flush()
	return nil
}

// runFig14 compares flow-setup latency and steady-state per-packet delay
// on the physical path versus the three-tunnel overlay path.
func runFig14(w io.Writer) error {
	t := newTable(w, "path", "first_packet_ms_p50", "steady_delay_ms_p50", "steady_delay_ms_p99")
	const dur = 10 * time.Second

	run := func(forceOverlay bool) (first, p50, p99 float64) {
		cfg := scotch.DefaultConfig()
		if forceOverlay {
			// Route everything over the overlay: zero overlay threshold
			// and no migration.
			cfg.OverlayThreshold = 0
			cfg.ElephantBytes = 1 << 40
			cfg.ActivateRate = 0.1
			cfg.DeactivateRate = 0
		}
		r := newRig(rigConfig{seed: 14, cfg: cfg, nClients: 1, nServers: 1, nPrimary: 2})
		em := r.emitter(r.clients[0])
		// A warm-up flow triggers overlay activation when forced.
		if forceOverlay {
			workload.StartClient(em, r.servers[0].IP, 50, 1, 0)
			r.eng.RunUntil(2 * time.Second)
		}
		em.Start(workload.Flow{Key: netaddr.FlowKey{
			Src: r.clients[0].IP, Dst: r.servers[0].IP, Proto: netaddr.ProtoTCP,
			SrcPort: 7000, DstPort: 80},
			Packets: 2000, Interval: 2 * time.Millisecond, Class: "probe"})
		r.eng.RunUntil(r.eng.Now() + dur)
		fp := r.cap.FirstPacketLatency("probe").Quantile(0.5) * 1000
		lat := r.cap.PacketLatency("probe")
		return fp, lat.Quantile(0.5) * 1000, lat.Quantile(0.99) * 1000
	}

	f, p50, p99 := run(false)
	t.row("physical", f, p50, p99)
	f, p50, p99 = run(true)
	t.row("overlay", f, p50, p99)
	t.flush()
	return nil
}
