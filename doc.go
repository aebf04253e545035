// Package ftmm is a from-scratch Go reproduction of "Fault Tolerant
// Design of Multimedia Servers" (Berson, Golubchik, Muntz — SIGMOD 1995):
// the four parity-based fault-tolerance schemes for video-on-demand disk
// farms (Streaming RAID, Staggered-group, Non-clustered, and
// Improved-bandwidth), the analytic model comparing them, the cost model
// used for system sizing, and byte-accurate cycle-driven simulators of
// all five schemes — the paper's four and declustered parity — over a
// simulated disk farm and tape library.
//
// The implementation lives under internal/ (see DESIGN.md for the layer
// map); cmd/ftmmbench regenerates every table and figure of the paper's
// evaluation, cmd/ftmmsim runs ad-hoc failure scenarios, and cmd/ftmmcost
// explores the sizing model. The benchmarks in this package, one per
// paper artifact, both time the pipelines and re-assert the headline
// numbers.
package ftmm
