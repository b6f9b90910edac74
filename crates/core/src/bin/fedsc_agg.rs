//! Mid-tier aggregator endpoint for a real-process hierarchical Fed-SC
//! round over TCP: the process form of one `fedsc-hier` aggregator node.
//!
//! Binds a listener for its children (devices or lower aggregators),
//! prints `listening <addr>` (flushed), collects `--children` uplinks
//! under the tier policy, pools them in ascending child order, merges
//! them with the eigengap-capped central clustering under the shared
//! `agg_seed(--seed, --tier, --node)` stream, forwards one representative
//! sample per merged cluster to the parent at `--addr` (as child
//! `--node` on the parent's fan-in), awaits the parent's labels, and
//! relays one composed downlink per included child:
//!
//! ```text
//! listening 127.0.0.1:40124
//! agg 0 reps 3 included 4
//! uplink_bytes 2464 downlink_bytes 448 envelope_bytes 0
//! ```
//!
//! Fleet telemetry: with `--telemetry` the aggregator absorbs its
//! children's in-band envelopes, estimates its clock offset to the
//! parent (timed handshake), shifts the whole subtree's spans into the
//! parent's clock, and forwards them — plus the merged metrics and its
//! own lane (`100 + --node`) — in-band on its uplink. Offsets compose
//! transitively, so the root receives root-clock timestamps directly.

mod common;

use common::{Common, Flags};
use fedsc::{
    collect_uplinks, pool_uplinks, recv_labels, send_labels, wrap_uplink, Aggregator, WireTelemetry,
};
use fedsc_obs::{FleetCollector, TraceContext};
use fedsc_transport::{
    with_retry, DeviceTransport, ServerTransport, TcpDevice, TcpOptions, TcpServer,
};
use std::io::Write;
use std::net::SocketAddr;
use std::process::ExitCode;

const USAGE: &str = "usage: fedsc-agg --addr HOST:PORT --node N --children Z \
[--bind 127.0.0.1:0] [--tier 0] [--parent P] [--devices 12] [--clusters 3] \
[--seed 1] [--quorum N] [--deadline-ms 300000] [--hier] [--telemetry] \
[--trace-out trace.json] [--metrics-out metrics.json]";

fn run(flags: &Flags) -> Result<(), String> {
    let common = Common::parse(flags)?;
    let addr: SocketAddr = flags.required("--addr")?;
    let bind: SocketAddr = flags.parsed("--bind", SocketAddr::from(([127, 0, 0, 1], 0)))?;
    let node: usize = flags.required("--node")?;
    let tier: usize = flags.parsed("--tier", 0)?;
    let parent: u64 = flags.parsed("--parent", 0)?;
    let children: usize = flags.required("--children")?;
    let policy = flags.round_policy()?;
    if children == 0 {
        return Err("--children must be positive".into());
    }
    common.start_tracing();
    // Only the config matters here; regenerating the shared fixture keeps
    // every process on the same parameters without shared state.
    let (_fed, cfg) = common.fixture();
    let pid = 100 + node as u64;

    let mut server =
        TcpServer::bind(bind, TcpOptions::default()).map_err(|e| format!("bind failed: {e}"))?;
    println!("listening {}", server.local_addr());
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout flush failed: {e}"))?;

    // ---- Collect, pool, merge — one fedsc-hier aggregator node. ----
    let agg_span = fedsc_obs::span("hier", "hier.agg_uplink")
        .field("tier", tier)
        .field("node", node)
        .field("children", children);
    let agg_span_id = agg_span.id();
    let mut fleet = FleetCollector::new();
    let payloads = collect_uplinks(&mut server, children, policy.deadline, Some(&mut fleet))
        .map_err(|e| format!("{e}"))?;
    let received = payloads.iter().filter(|m| m.is_some()).count();
    drop(agg_span.field("received", received));
    if received < policy.required(children) {
        return Err("quorum not met before the tier deadline".into());
    }
    let (included, counts, pooled) = pool_uplinks(payloads).map_err(|e| format!("{e}"))?;
    if pooled.cols() == 0 {
        return Err("no samples to merge".into());
    }
    let (agg, reps) = Aggregator::merge(included, counts, &pooled, &cfg, tier, node)
        .map_err(|e| format!("{e}"))?;

    // ---- Forward the representatives (plus the subtree's telemetry). ----
    let mut up = TcpDevice::new(addr, node, TcpOptions::default());
    let telemetry = WireTelemetry {
        ctx: common.telemetry.then_some(TraceContext {
            run_id: common.seed,
            round: 0,
            tier: (tier + 1) as u32,
            node: node as u64,
            parent,
            pid,
            parent_span: 0,
        }),
        ship: common.telemetry,
        pid,
    };
    let envelope_bytes = fleet.envelope_bytes;
    let payload = wrap_uplink(reps, &mut up, &telemetry, agg_span_id, fleet)
        .map_err(|e| format!("uplink to parent: {e}"))?;
    with_retry(policy.max_retries, policy.retry_backoff, || {
        up.send_uplink(&payload)
    })
    .map_err(|e| format!("uplink to parent: {e}"))?;

    // ---- Compose and relay the parent's labels to the children. ----
    let parent_labels =
        recv_labels(&mut up, &policy).map_err(|e| format!("downlink from parent: {e}"))?;
    for (c, labels) in agg.relay(&parent_labels).map_err(|e| format!("{e}"))? {
        send_labels(&mut server, c, labels, &policy)
            .map_err(|e| format!("downlink to child {c}: {e}"))?;
    }
    let stats = server.stats();
    drop(server);
    println!(
        "agg {node} reps {} included {}",
        agg.reps(),
        agg.included().len()
    );
    println!(
        "uplink_bytes {} downlink_bytes {} envelope_bytes {envelope_bytes}",
        stats.bytes_received, stats.bytes_sent
    );
    common.export_local()?;
    Ok(())
}

fn main() -> ExitCode {
    common::main("fedsc-agg", USAGE, run)
}
