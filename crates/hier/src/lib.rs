//! # fedsc-hier — multi-tier aggregation tree for the Fed-SC round
//!
//! The flat wire round (`fedsc::wire`) has every device talk to a single
//! server, so the root's uplink traffic and Phase-2 clustering both grow
//! with the device count `Z`. This crate runs the same one-shot protocol
//! over an **aggregation tree**: devices upload to first-tier aggregators,
//! each aggregator clusters its children's samples (Phase 2 on the
//! subtree, through the same `candidate_threshold` cutover as the server)
//! and forwards **one representative sample per merged cluster** to its
//! parent, and the root clusters only the top tier's representatives.
//! Label broadcasts relay back down with composed relabel maps. Root-side
//! cost therefore grows with the *cluster* count, not the device count.
//!
//! The driver is **staged and single-threaded**: a bottom-up uplink sweep
//! (every node sends before its parent collects) followed by a top-down
//! downlink sweep. All three transports support this shape — the
//! in-memory links buffer unboundedly and TCP completes handshake and
//! uplink on its background endpoint threads — so the tree runs unchanged
//! over lossless, fault-injected, and real TCP links, with no thread
//! spawned by this crate.
//!
//! Guarantees:
//!
//! * **Degenerate tree ≡ flat round.** Every node runs the same
//!   [`fedsc::role`] as the flat round: devices [`fedsc::device_uplink`]
//!   and [`fedsc::device_finish`], aggregators [`fedsc::Aggregator`], the
//!   root [`fedsc::root_assign`], with the flat round's transport helpers
//!   ([`fedsc::collect_uplinks`], [`fedsc::pool_uplinks`],
//!   [`fedsc::wrap_uplink`]). [`HierTopology::flat`] (no aggregator tier)
//!   is therefore bit-identical to [`fedsc::run_over_wire`], differential
//!   privacy and channel noise included (tested).
//! * **Byte-exact per-tier accounting.** [`HierRunOutput`] extends
//!   [`fedsc::WireRunOutput`] with one [`TierTraffic`] row per tier, summed
//!   from the same [`fedsc_transport::LinkStats`] the endpoints keep.
//! * **Per-tier straggler policy.** Each tier runs under its own
//!   [`fedsc::RoundPolicy`] ([`HierPolicy`]); an aggregator that misses
//!   quorum fails its *subtree* (children fall back to cluster 0, reported
//!   in `excluded`), while a root quorum miss fails the round — exactly
//!   the flat semantics at the root.

#![warn(missing_docs)]

pub mod output;
pub mod run;
pub mod topology;

pub use output::{HierRunOutput, TierTraffic};
pub use run::{run_hier_round, run_hier_round_with_dead};
pub use topology::{HierPolicy, HierTopology};
