//! The staged, single-threaded tree driver.
//!
//! One hierarchical round is two sweeps over the tree, each node running
//! its [`fedsc::role`]:
//!
//! 1. **Uplink sweep (bottom-up).** Every device runs
//!    [`fedsc::device_uplink`] and sends its encoded samples; then tier by
//!    tier each parent collects its children's uplinks under the tier's
//!    [`fedsc::RoundPolicy`] and pools them in ascending child order. An
//!    aggregator runs [`fedsc::Aggregator::merge`] and forwards its
//!    representatives to its own parent; the root runs
//!    [`fedsc::root_assign`].
//! 2. **Downlink sweep (top-down).** The root answers the top tier; each
//!    aggregator receives the labels of *its* representatives, composes
//!    them with [`fedsc::Aggregator::relay`], and sends one downlink per
//!    included child. Devices finish with [`fedsc::device_finish`].
//!
//! The sweeps are sequential on the calling thread: every send at tier
//! `t` completes before any tier-`t` parent starts collecting, which all
//! three transports support (unbounded in-process buffering; TCP
//! handshake/uplink handled by the endpoint's own background threads).
//! This crate spawns no threads and opens no sockets of its own.
//!
//! Failure semantics: a child whose uplink misses the tier deadline is a
//! straggler; a parent that misses its quorum (or cannot reach its own
//! parent within the retry budget) fails its whole subtree — those
//! devices keep the fallback label 0 and are reported in
//! [`fedsc::WireRunOutput::excluded`]. A quorum miss *at the root* fails
//! the round, exactly like the flat server.

use crate::output::{HierRunOutput, TierTraffic};
use crate::topology::{HierPolicy, HierTopology};
use fedsc::local::LocalOutput;
use fedsc::{
    collect_uplinks, device_finish, device_uplink, pool_uplinks, recv_labels, root_assign,
    send_labels, wire_err, wrap_uplink, Aggregator, FedScConfig, WireTelemetry,
};
use fedsc_federated::partition::FederatedDataset;
use fedsc_linalg::{LinalgError, Result};
use fedsc_obs::{FleetCollector, LazyCounter, Stopwatch, TraceContext};
use fedsc_transport::{with_retry, DeviceTransport, LinkStats, ServerTransport, Transport};

/// Device rounds completed (uplink sent, downlink applied).
static HIER_DEVICE_ROUNDS: LazyCounter = LazyCounter::new("hier.device_rounds");
/// Aggregator rounds completed (children pooled, representatives sent up).
static HIER_AGG_ROUNDS: LazyCounter = LazyCounter::new("hier.agg_rounds");
/// Root rounds completed.
static HIER_ROOT_ROUNDS: LazyCounter = LazyCounter::new("hier.root_rounds");
/// Children excluded as stragglers across all tiers.
static HIER_STRAGGLERS: LazyCounter = LazyCounter::new("hier.stragglers_excluded");
/// Aggregators that failed their subtree (quorum miss or unreachable parent).
static HIER_SUBTREES_FAILED: LazyCounter = LazyCounter::new("hier.subtrees_failed");
/// Uplink bytes observed by parents, summed over every tier.
static HIER_UPLINK_BYTES: LazyCounter = LazyCounter::new("hier.uplink_bytes");
/// Downlink bytes sent by parents, summed over every tier.
static HIER_DOWNLINK_BYTES: LazyCounter = LazyCounter::new("hier.downlink_bytes");

/// Runs one hierarchical Fed-SC round over `transport` with the given
/// tree shape and per-tier policy. See the module docs for the staged
/// execution model and failure semantics.
pub fn run_hier_round<T: Transport>(
    fed: &FederatedDataset,
    cfg: &FedScConfig,
    topology: &HierTopology,
    transport: &T,
    policy: &HierPolicy,
) -> Result<HierRunOutput> {
    run_hier_round_with_dead(fed, cfg, topology, transport, policy, &[])
}

/// [`run_hier_round`] with the devices in `dead_devices` never speaking —
/// the deterministic straggler model the quorum tests and the perf
/// harness drive (a dead device neither computes nor sends, exactly like
/// a crashed client).
pub fn run_hier_round_with_dead<T: Transport>(
    fed: &FederatedDataset,
    cfg: &FedScConfig,
    topology: &HierTopology,
    transport: &T,
    policy: &HierPolicy,
    dead_devices: &[usize],
) -> Result<HierRunOutput> {
    let z_count = fed.devices.len();
    topology.validate()?;
    if topology.devices != z_count {
        return Err(LinalgError::InvalidArgument(
            "hier topology device count does not match the dataset",
        ));
    }
    let widths = topology.widths();
    let num_tiers = topology.num_tiers();
    let _span = fedsc_obs::span("hier", "hier.run")
        .field("devices", z_count)
        .field("tiers", num_tiers);
    let traced = fedsc_obs::trace::is_enabled();
    // Child → parent index per tier, for stamping trace contexts.
    let parent_of: Vec<Vec<usize>> = (0..num_tiers)
        .map(|t| {
            let mut v = vec![0usize; widths[t]];
            for p in 0..widths[t + 1] {
                for c in topology.children_range(t, p) {
                    v[c] = p;
                }
            }
            v
        })
        .collect();
    // The whole tree runs in one process, so spans and metrics stay in the
    // shared ring and registry: only the causal context rides the wire,
    // and only when tracing is on.
    let telemetry = |tier: usize, node: usize| WireTelemetry {
        ctx: traced.then_some(TraceContext {
            run_id: cfg.seed,
            round: 0,
            tier: tier as u32,
            node: node as u64,
            parent: parent_of[tier][node] as u64,
            pid: 1,
            parent_span: 0,
        }),
        ..WireTelemetry::default()
    };
    // Per-tier wall time and absorbed telemetry-envelope bytes.
    let mut tier_wall_ns = vec![0u64; num_tiers];
    let mut tier_env_bytes = vec![0usize; num_tiers];

    // Open every tier's fan-ins: one (server, children) group per parent.
    // Child endpoints land in a flat per-tier vector (group ranges are
    // contiguous and ascending), parent endpoints in per-tier vectors.
    let mut servers: Vec<Vec<T::Server>> = Vec::with_capacity(num_tiers);
    let mut child_links: Vec<Vec<T::Device>> = Vec::with_capacity(num_tiers);
    for t in 0..num_tiers {
        let parents = widths[t + 1];
        let mut tier_servers = Vec::with_capacity(parents);
        let mut tier_children = Vec::with_capacity(widths[t]);
        for p in 0..parents {
            let range = topology.children_range(t, p);
            let (server, children) = transport.open(range.len()).map_err(wire_err)?;
            tier_servers.push(server);
            tier_children.extend(children);
        }
        servers.push(tier_servers);
        child_links.push(tier_children);
    }

    // ---- Uplink sweep, stage 0: every live device computes and sends. ----
    let mut is_dead = vec![false; z_count];
    for &d in dead_devices {
        if d < z_count {
            is_dead[d] = true;
        }
    }
    let device_policy = policy.tier(0);
    let mut local_outs: Vec<Option<LocalOutput>> = (0..z_count).map(|_| None).collect();
    let stage0_sw = Stopwatch::start();
    for z in 0..z_count {
        if is_dead[z] {
            continue;
        }
        let dev_span = fedsc_obs::span("hier", "hier.device_uplink").field("device", z);
        let up = device_uplink(&fed.devices[z].data, z, cfg)?;
        let link = &mut child_links[0][z];
        let payload = wrap_uplink(
            up.samples,
            link,
            &telemetry(0, z),
            dev_span.id(),
            FleetCollector::new(),
        )?;
        if with_retry(
            device_policy.max_retries,
            device_policy.retry_backoff,
            || link.send_uplink(&payload),
        )
        .is_err()
        {
            // Retry budget exhausted: the device becomes a straggler its
            // parent's quorum policy will account for, not a fatal error.
            continue;
        }
        local_outs[z] = Some(up.local);
    }
    tier_wall_ns[0] += stage0_sw.elapsed_ns();

    // ---- Uplink sweep, stages 1..: tier-by-tier aggregation. ----
    // `aggregators[t][p]`: what parent `p` of tier `t` remembers for the
    // downlink sweep (None = failed subtree, or the root which needs none).
    let mut aggregators: Vec<Vec<Option<Aggregator>>> = (0..num_tiers)
        .map(|t| (0..widths[t + 1]).map(|_| None).collect())
        .collect();
    // `answered[t][c]`: node `c` at level `t` was sent a downlink.
    let mut answered: Vec<Vec<bool>> = widths[..num_tiers]
        .iter()
        .map(|&w| vec![false; w])
        .collect();
    let mut excluded_at: Vec<Vec<usize>> = (0..num_tiers).map(|_| Vec::new()).collect();

    for t in 0..num_tiers {
        let tier_sw = Stopwatch::start();
        let is_root = t + 1 == num_tiers;
        let tier_policy = policy.tier(t);
        let mut tier_fleet = FleetCollector::new();
        for p in 0..widths[t + 1] {
            let range = topology.children_range(t, p);
            let n_children = range.len();
            let agg_span = fedsc_obs::span(
                "hier",
                if is_root {
                    "hier.root_uplink"
                } else {
                    "hier.agg_uplink"
                },
            )
            .field("tier", t)
            .field("node", p)
            .field("children", n_children);
            let agg_span_id = agg_span.id();
            let payloads = collect_uplinks(
                &mut servers[t][p],
                n_children,
                tier_policy.deadline,
                Some(&mut tier_fleet),
            )?;
            let received = payloads.iter().filter(|m| m.is_some()).count();
            for (local, m) in payloads.iter().enumerate() {
                if m.is_none() {
                    excluded_at[t].push(range.start + local);
                }
            }
            drop(agg_span.field("received", received));
            if received < tier_policy.required(n_children) {
                if is_root {
                    return Err(LinalgError::InvalidArgument(
                        "root quorum not met before the round deadline",
                    ));
                }
                HIER_SUBTREES_FAILED.inc();
                continue;
            }
            let (included, counts, pooled) = pool_uplinks(payloads)?;
            if pooled.cols() == 0 {
                // Quorum of empty uploads (all included devices hold zero
                // points): nothing to cluster, nothing to forward.
                if is_root {
                    return Err(LinalgError::InvalidArgument(
                        "root received no samples to cluster",
                    ));
                }
                HIER_SUBTREES_FAILED.inc();
                continue;
            }

            if is_root {
                // The root is the flat server: answer every included child.
                let (_, labels) = root_assign(&pooled, &counts, cfg)?;
                for (&c, labels) in included.iter().zip(labels) {
                    send_labels(&mut servers[t][p], c, labels, &tier_policy)?;
                    answered[t][range.start + c] = true;
                }
                HIER_ROOT_ROUNDS.inc();
            } else {
                let (agg, reps) = Aggregator::merge(included, counts, &pooled, cfg, t, p)?;
                let link = &mut child_links[t + 1][p];
                let payload = wrap_uplink(
                    reps,
                    link,
                    &telemetry(t + 1, p),
                    agg_span_id,
                    FleetCollector::new(),
                )?;
                let up_policy = policy.tier(t + 1);
                if with_retry(up_policy.max_retries, up_policy.retry_backoff, || {
                    link.send_uplink(&payload)
                })
                .is_err()
                {
                    // Unreachable parent: the subtree fails as a unit.
                    HIER_SUBTREES_FAILED.inc();
                    continue;
                }
                HIER_AGG_ROUNDS.inc();
                aggregators[t][p] = Some(agg);
            }
        }
        tier_env_bytes[t] = tier_fleet.envelope_bytes;
        tier_wall_ns[t] += tier_sw.elapsed_ns();
    }

    // ---- Downlink sweep: relay composed labels tier by tier. ----
    for t in (0..num_tiers.saturating_sub(1)).rev() {
        let tier_sw = Stopwatch::start();
        let tier_policy = policy.tier(t);
        let parent_policy = policy.tier(t + 1);
        for p in 0..widths[t + 1] {
            let Some(agg) = aggregators[t][p].take() else {
                continue; // failed subtree: children stay unanswered
            };
            if !answered[t + 1][p] {
                continue; // our own parent excluded or failed us
            }
            let _span = fedsc_obs::span("hier", "hier.agg_downlink")
                .field("tier", t)
                .field("node", p)
                .field("children", agg.included().len());
            let parent_labels = recv_labels(&mut child_links[t + 1][p], &parent_policy)?;
            let range = topology.children_range(t, p);
            for (c, labels) in agg.relay(&parent_labels)? {
                if send_labels(&mut servers[t][p], c, labels, &tier_policy).is_ok() {
                    answered[t][range.start + c] = true;
                }
            }
        }
        tier_wall_ns[t] += tier_sw.elapsed_ns();
    }

    // ---- Device finish: flat Phase 3 on every answered device. ----
    let finish_sw = Stopwatch::start();
    let mut gathered: Vec<Vec<usize>> = Vec::with_capacity(z_count);
    let mut excluded_devices = Vec::new();
    for z in 0..z_count {
        if !answered[0][z] {
            gathered.push(vec![0usize; fed.devices[z].data.cols()]);
            excluded_devices.push(z);
            continue;
        }
        let labels = recv_labels(&mut child_links[0][z], &device_policy)?;
        let out = local_outs[z]
            .take()
            .ok_or(LinalgError::InvalidArgument("answered device never ran"))?;
        gathered.push(device_finish(&out, &labels, cfg.num_clusters)?);
        HIER_DEVICE_ROUNDS.inc();
    }
    tier_wall_ns[0] += finish_sw.elapsed_ns();

    // ---- Per-tier accounting from the endpoints' own stats. ----
    let mut tiers = Vec::with_capacity(num_tiers);
    for (t, tier_servers) in servers.iter().enumerate() {
        let mut stats = LinkStats::default();
        for s in tier_servers {
            stats.merge(&s.stats());
        }
        HIER_UPLINK_BYTES.add(stats.bytes_received as u64);
        HIER_DOWNLINK_BYTES.add(stats.bytes_sent as u64);
        HIER_STRAGGLERS.add(excluded_at[t].len() as u64);
        tiers.push(TierTraffic {
            parents: widths[t + 1],
            children: widths[t],
            uplink_bytes: stats.bytes_received,
            downlink_bytes: stats.bytes_sent,
            uplink_messages: stats.messages_received,
            downlink_messages: stats.messages_sent,
            excluded_children: std::mem::take(&mut excluded_at[t]),
            wall_ns: tier_wall_ns[t],
            envelope_bytes: tier_env_bytes[t],
        });
    }

    let root_uplink = tiers.last().map_or(0, |t| t.uplink_bytes);
    let root_downlink = tiers.last().map_or(0, |t| t.downlink_bytes);
    let root_envelope = tiers.last().map_or(0, |t| t.envelope_bytes);
    Ok(HierRunOutput {
        wire: fedsc::WireRunOutput {
            predictions: fed.scatter_predictions(&gathered),
            uplink_bytes: root_uplink,
            downlink_bytes: root_downlink,
            excluded: excluded_devices,
            envelope_bytes: root_envelope,
        },
        tiers,
    })
}
