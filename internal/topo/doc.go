// Package topo builds and indexes simulated network topologies: the
// switch graph, host attachment points, shortest-path computation for the
// controller (one shortest-path tree per queried source switch, cached
// until the switch graph changes), and canonical topologies (single
// switch, linear, and the leaf-spine data center with per-rack vSwitches
// of §6.2) used by the experiments. It also indexes the underlying links
// so the fault-injection harness can flap a specific inter-switch or host
// access link by name.
package topo
