// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (plus the DESIGN.md ablations). Each benchmark iteration runs
// the full deterministic experiment that regenerates the corresponding
// result; see EXPERIMENTS.md for paper-vs-measured values. These are
// macro-benchmarks — wall time per op is the cost of reproducing the whole
// figure.
//
//	go test -bench=. -benchmem .
package scotch_test

import (
	"context"
	"io"
	"runtime"
	"testing"

	"scotch/internal/experiments"
)

func suiteIDs() []string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// BenchmarkSuiteSerial runs every registered experiment back to back on one
// worker: the baseline for the parallel runner's speedup.
func BenchmarkSuiteSerial(b *testing.B) {
	ids := suiteIDs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAll(context.Background(), ids, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteParallel runs the full suite on a runtime.NumCPU()-worker
// pool. Each experiment owns a private engine, so per-op wall time shrinks
// toward the longest single experiment as cores are added while the
// concatenated output stays byte-identical to the serial run.
func BenchmarkSuiteParallel(b *testing.B) {
	ids := suiteIDs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAll(context.Background(), ids, runtime.NumCPU()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Profiles regenerates the calibrated equipment table
// (paper §3.2 testbed description).
func BenchmarkTable1Profiles(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig3FailureFraction regenerates Fig. 3: client flow failure
// fraction vs attack rate for the three switch models.
func BenchmarkFig3FailureFraction(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4ControlPathProfile regenerates Fig. 4: Packet-In rate, rule
// install rate and success rate coincide and saturate at the OFA limit.
func BenchmarkFig4ControlPathProfile(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig8PolicyConsistency regenerates the §5.4 policy-consistency
// comparison (same-middlebox vs naive migration).
func BenchmarkFig8PolicyConsistency(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9InsertionRate regenerates Fig. 9: successful vs attempted
// flow-rule insertion rate.
func BenchmarkFig9InsertionRate(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10DataControlInteraction regenerates Fig. 10: data-path loss
// vs rule insertion rate at three data rates.
func BenchmarkFig10DataControlInteraction(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11IngressDifferentiation regenerates the ingress-port
// differentiation experiment (reconstructed from the §6 roadmap).
func BenchmarkFig11IngressDifferentiation(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12OverlayScaling regenerates the overlay capacity scaling
// experiment (reconstructed).
func BenchmarkFig12OverlayScaling(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13ElephantMigration regenerates the large-flow migration
// experiment (reconstructed).
func BenchmarkFig13ElephantMigration(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14OverlayDelay regenerates the overlay relay delay
// experiment (reconstructed).
func BenchmarkFig14OverlayDelay(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15TraceDriven regenerates the trace-driven flash-crowd
// experiment on the leaf-spine data center (reconstructed).
func BenchmarkFig15TraceDriven(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkAblationGroupSelectVsSingleVswitch sweeps the select-group
// fan-out width.
func BenchmarkAblationGroupSelectVsSingleVswitch(b *testing.B) {
	benchExperiment(b, "ablation-fanout")
}

// BenchmarkAblationMigrationThreshold sweeps the elephant byte threshold.
func BenchmarkAblationMigrationThreshold(b *testing.B) {
	benchExperiment(b, "ablation-elephant-threshold")
}

// BenchmarkAblationInstallRate sweeps the install pacing rate R against
// insertion failures and data-path stall.
func BenchmarkAblationInstallRate(b *testing.B) {
	benchExperiment(b, "ablation-scheduler")
}

// BenchmarkAblationPriorityScheduler compares the paper's priority
// scheduler with a single FIFO install queue.
func BenchmarkAblationPriorityScheduler(b *testing.B) {
	benchExperiment(b, "ablation-fifo-scheduler")
}

// BenchmarkAblationWithdrawal compares automatic withdrawal with leaving
// the overlay engaged after the surge.
func BenchmarkAblationWithdrawal(b *testing.B) {
	benchExperiment(b, "ablation-withdrawal")
}

// BenchmarkChaosVSwitch regenerates the mesh-vSwitch crash experiment:
// backup promotion under a sustained attack.
func BenchmarkChaosVSwitch(b *testing.B) { benchExperiment(b, "chaos-vswitch") }

// BenchmarkChaosPartition regenerates the controller partition/heal
// experiment: failover detection plus stale-master fencing.
func BenchmarkChaosPartition(b *testing.B) { benchExperiment(b, "chaos-partition") }

// BenchmarkChaosChurn regenerates the link-flap churn experiment:
// overlay deploy/withdraw cycling under §5.5 withdrawal.
func BenchmarkChaosChurn(b *testing.B) { benchExperiment(b, "chaos-churn") }

// BenchmarkElastic regenerates the elastic-pool experiment: the
// joint balancer grows the mesh under a ramping attack and drains it back.
func BenchmarkElastic(b *testing.B) { benchExperiment(b, "elastic") }
