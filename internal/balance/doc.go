// Package balance is the joint-elasticity balancer: one deterministic,
// sim-clock-driven control loop that jointly decides how the whole
// Scotch control plane scales. It is the only load-driven decision
// loop in the repository; internal/elastic and internal/cluster supply
// its actuators and signals and make no load-driven decisions of their
// own. Its only input is the observatory's
// consistent obs.ClusterView snapshot (DESIGN.md §12 — the balancer
// never probes subsystems directly), and its outputs are three actuator
// interfaces:
//
//   - grow/drain the overlay vSwitch pool (elastic.Pool),
//   - migrate switch pods between controller replicas (Migrator,
//     satisfied by cluster.Coordinator.MigratePod), and
//   - spawn/retire controller replicas (ReplicaActuator).
//
// The policy is multi-threshold with hysteresis and per-action
// cooldowns, in the style of EASM (arXiv 1711.08659) and the
// multi-threshold switch-migration approach (arXiv 2504.17046):
// scale-up remedies are tried cheapest-first (grow pool, then migrate a
// pod, then spawn a replica — SLO burn rate is the escalation signal),
// scale-down only runs when no SLO is burning, and every decision —
// applied or suppressed — is counted, logged, and trace-marked. See
// DESIGN.md §13 for the control-loop state machine and the anti-flap
// reasoning, and OPERATIONS.md for the operator-facing decision table.
//
// All Balancer methods are safe on a nil receiver and the disabled path
// allocates nothing, so call sites never need to guard.
package balance
