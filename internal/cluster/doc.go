// Package cluster shards the SDN control plane across multiple controller
// replicas, going beyond the paper's single-controller evaluation: §7
// observes that Scotch "can be easily extended to support multiple
// controllers" by partitioning switches among them. Each replica is a full
// controller.Controller running the Scotch application over its shard; a
// coordinator owns the pod-to-replica assignment, migrates pods on
// request — OpenFlow 1.3 master/slave role handoff with generation
// fencing, flow-state transfer, and in-flight work draining through the
// new master — and recovers from replica death via heartbeat-based
// failure detection. Load-driven migration decisions belong to the joint
// balancer (internal/balance), which calls Coordinator.MigratePod.
package cluster
