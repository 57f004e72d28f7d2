// Package elastic is the actuator and the load signal for the Scotch
// mesh-vSwitch pool (paper §3, "elastically scaling up the control
// plane").
//
// The paper provisions the overlay for a worst case; this package
// supplies what a control loop needs to size it live. VSwitchPool
// implements Pool over a *running* deployment through scotch.App's live
// AddVSwitch / DrainVSwitch operations: scale-up extends the tunnel mesh
// and select-group fan-out in place; scale-down drains gracefully, so
// established flows either idle out or are handed to the
// elephant-migration path — never dropped. OverlayRate is the scalar
// load signal, the overlay-routed flow rate per pool member.
//
// The package makes no decisions. The joint balancer (internal/balance)
// is the one loop that reads the signal and grows or drains the pool.
// Everything runs on the simulation clock, so the same seed produces the
// same resize sequence.
package elastic
