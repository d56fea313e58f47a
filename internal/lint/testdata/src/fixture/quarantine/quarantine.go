// Package quarantine stands in for a quarantined subsystem — in the real
// repository, the TCP transport (internal/node/tcptransport), whose
// wall-clock waivers assume the simulation core can never reach it. The
// boundary rule forbids sim-critical packages outside the declared adapter
// (fixture/quarantineadapter) from importing it.
package quarantine

// Dial stands in for the transport's connection setup.
func Dial(addr string) string { return "connected:" + addr }
