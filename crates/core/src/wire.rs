//! Wire-level execution of the Fed-SC round: devices and the server run as
//! separate threads (or processes — see the `fedsc-server`/`fedsc-device`
//! binaries) exchanging **encoded byte messages** over a pluggable
//! [`Transport`] — the deployment shape of Algorithm 1, as opposed to the
//! in-process orchestration of [`crate::scheme::FedSc`].
//!
//! This module adds only the transport around the roles of
//! [`crate::role`]: [`device_round`] runs [`device_uplink`], sends the
//! released samples as an [`UplinkMessage`] payload (behind the optional
//! telemetry envelope of [`wrap_uplink`]), awaits its labels and runs
//! [`device_finish`]; [`server_round`] collects and pools the payloads
//! ([`collect_uplinks`], [`pool_uplinks`]), runs [`root_assign`], and
//! answers each included device with an encoded [`DownlinkMessage`]. The
//! hierarchical tree (`fedsc-hier`) and the TCP binaries use the same
//! helpers, so with a lossless link every shape is **bit-identical** to
//! `FedSc::run` under the same seeds, differential privacy and channel
//! noise included (tested).
//!
//! The round is one-shot, which makes straggler handling simple: the
//! server collects uplinks until all devices report or the
//! [`RoundPolicy::deadline`] expires, proceeds if the
//! [`RoundPolicy::quorum`] is met, and reports the devices it excluded in
//! [`WireRunOutput::excluded`] (their points fall back to cluster 0).
//! Transient link failures — dropped or corrupted-and-rejected messages —
//! are absorbed by a bounded retry budget on every send.
//!
//! [`UplinkMessage`]: fedsc_federated::channel::UplinkMessage
//! [`DownlinkMessage`]: fedsc_federated::channel::DownlinkMessage

use crate::config::FedScConfig;
use crate::role::{device_finish, device_uplink, root_assign};
use bytes::Bytes;
use fedsc_federated::channel::{DownlinkMessage, UplinkMessage};
use fedsc_federated::partition::FederatedDataset;
use fedsc_linalg::{LinalgError, Matrix, Result};
use fedsc_obs::{Envelope, FleetCollector, LazyCounter, LazyHistogram, Stopwatch, TraceContext};
use fedsc_transport::{
    with_retry, Deadline, DeviceTransport, InMemoryTransport, LinkStats, ServerTransport,
    Transport, TransportError,
};
use std::time::Duration;

/// Device rounds completed (uplink sent, downlink applied).
static WIRE_DEVICE_ROUNDS: LazyCounter = LazyCounter::new("wire.device_rounds");
/// Server rounds completed.
static WIRE_SERVER_ROUNDS: LazyCounter = LazyCounter::new("wire.server_rounds");
/// Devices excluded as stragglers across all server rounds.
static WIRE_STRAGGLERS: LazyCounter = LazyCounter::new("wire.stragglers_excluded");
/// Wall time of each completed device round, in milliseconds.
static WIRE_DEVICE_ROUND_MS: LazyHistogram = LazyHistogram::new(
    "wire.device_round_ms",
    &[
        1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 30_000, 60_000,
    ],
);

/// Telemetry posture of one sending round: what (if anything) rides
/// in-band on the uplink. The default attaches nothing, keeping the
/// payload byte-identical to an untraced round.
#[derive(Debug, Clone, Default)]
pub struct WireTelemetry {
    /// Causal context stamped onto the uplink envelope. Its
    /// `parent_span` is overwritten with the id of the sender's completed
    /// local-output span, so the receiver's handling span records a
    /// parent that actually ships.
    pub ctx: Option<TraceContext>,
    /// Also ship this process's completed spans and a metrics snapshot
    /// in-band, shifted into the parent's clock via
    /// [`DeviceTransport::clock_sync`]. Real-process mode only —
    /// in-process drivers share one ring and registry, and shipping
    /// would double-count both.
    pub ship: bool,
    /// Process lane (Chrome `pid`) for shipped spans.
    pub pid: u64,
}

/// Server-side straggler and reliability policy for one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPolicy {
    /// Minimum devices whose uplinks must arrive for the round to proceed;
    /// `None` requires all of them (any missing device fails the round).
    pub quorum: Option<usize>,
    /// How long the server collects uplinks before giving up on stragglers.
    pub deadline: Duration,
    /// Extra attempts granted to every send after a transient link error.
    pub max_retries: u32,
    /// Initial backoff between retry attempts (doubles per retry).
    pub retry_backoff: Duration,
}

impl Default for RoundPolicy {
    fn default() -> Self {
        RoundPolicy {
            quorum: None,
            deadline: Duration::from_secs(300),
            max_retries: 5,
            retry_backoff: Duration::from_millis(10),
        }
    }
}

impl RoundPolicy {
    /// How long a device waits for its downlink: the server's collection
    /// deadline plus slack for the central clustering itself. Normally the
    /// transport unblocks excluded devices much sooner (the server closes
    /// the links when the round ends); this is the backstop.
    pub fn downlink_wait(&self) -> Duration {
        self.deadline.saturating_add(Duration::from_secs(60))
    }

    /// Devices that must report for a round over `z_count` children to
    /// proceed: the quorum, clamped to `[1, z_count]` (`None` = all).
    pub fn required(&self, z_count: usize) -> usize {
        self.quorum.unwrap_or(z_count).min(z_count).max(1)
    }
}

/// Result of a wire-level run.
#[derive(Debug, Clone)]
pub struct WireRunOutput {
    /// Predicted global cluster per point, in global-point order. Points
    /// on excluded devices fall back to cluster 0.
    pub predictions: Vec<usize>,
    /// Total bytes that crossed the uplink as observed by the server — the
    /// lossless in-memory link counts payload bytes, framed links (TCP,
    /// fault-injecting) count framing and handshake overhead too.
    pub uplink_bytes: usize,
    /// Total bytes that crossed the downlink (same accounting basis).
    pub downlink_bytes: usize,
    /// Devices whose uplink never arrived before the deadline; empty on a
    /// clean run.
    pub excluded: Vec<usize>,
    /// Serialized telemetry-envelope bytes the server absorbed from
    /// uplink payloads — the exact overhead tracing added to
    /// `uplink_bytes` (0 when telemetry is off, so
    /// `uplink_bytes - envelope_bytes` is invariant under tracing).
    pub envelope_bytes: usize,
}

/// Maps a link failure into the workspace error type, preserving the
/// failure class in the message. Public so the hierarchical tree driver
/// (`fedsc-hier`) reports link failures with the same vocabulary.
pub fn wire_err(e: TransportError) -> LinalgError {
    LinalgError::InvalidArgument(match e {
        TransportError::Closed(_) => "transport closed before the round completed",
        TransportError::Timeout(_) => "transport deadline expired",
        TransportError::VersionMismatch { .. } => "peer speaks a different protocol version",
        TransportError::Dropped
        | TransportError::ChecksumMismatch { .. }
        | TransportError::Truncated { .. }
        | TransportError::BadMagic => "message lost despite the retry budget",
        TransportError::Malformed(_) | TransportError::Oversize { .. } => {
            "malformed transport frame"
        }
        TransportError::Io { .. } => "socket failure",
    })
}

/// Runs one device's side of the round over `link`: [`device_uplink`] on
/// `data`, the uplink (prefixed with the envelope `telemetry` asks for),
/// the wait for its labels, and [`device_finish`]. Returns the
/// device-local predictions (one global cluster id per local point).
///
/// Deterministic given `(cfg.seed, z)` — the transport carries opaque
/// bytes and cannot perturb the clustering.
pub fn device_round<D: DeviceTransport>(
    data: &Matrix,
    z: usize,
    cfg: &FedScConfig,
    link: &mut D,
    policy: &RoundPolicy,
    telemetry: &WireTelemetry,
) -> Result<Vec<usize>> {
    let _span = fedsc_obs::span("wire", "wire.device_round").field("device", z);
    let sw = Stopwatch::start();
    // The local computation gets its own span so a *completed* span id
    // exists by uplink time — the round span is still open when the
    // payload ships, so it cannot serve as the cross-process parent.
    let local_span = fedsc_obs::span("wire", "wire.local_output").field("device", z);
    let local_span_id = local_span.id();
    let up = device_uplink(data, z, cfg)?;
    drop(local_span);
    let payload = wrap_uplink(
        up.samples,
        link,
        telemetry,
        local_span_id,
        FleetCollector::new(),
    )?;
    with_retry(policy.max_retries, policy.retry_backoff, || {
        link.send_uplink(&payload)
    })
    .map_err(wire_err)?;
    let labels = recv_labels(link, policy)?;
    let predictions = device_finish(&up.local, &labels, cfg.num_clusters)?;
    WIRE_DEVICE_ROUNDS.inc();
    WIRE_DEVICE_ROUND_MS.observe(sw.elapsed_ns() / 1_000_000);
    Ok(predictions)
}

/// Encodes `samples` as an uplink payload behind the telemetry envelope
/// `telemetry` asks for. `parent_span` becomes the context's parent span.
/// With the default (empty) posture the payload is the bare encoding;
/// with `ship` set, the link's clock offset is estimated first, and the
/// spans and metrics of `subtree` (what an aggregator absorbed from its
/// children; empty on a device) plus this process's own are shifted into
/// the receiver's clock and shipped, so offsets compose transitively up
/// an aggregation tree.
pub fn wrap_uplink<D: DeviceTransport>(
    samples: Matrix,
    link: &mut D,
    telemetry: &WireTelemetry,
    parent_span: u64,
    mut subtree: FleetCollector,
) -> Result<Bytes> {
    let inner = UplinkMessage {
        dim: samples.rows(),
        samples,
    }
    .encode();
    let ctx = telemetry.ctx.map(|mut c| {
        c.parent_span = parent_span;
        c
    });
    let env = if telemetry.ship {
        let offset = link.clock_sync().map_err(wire_err)?;
        subtree.add_local_events(&fedsc_obs::trace::drain(), telemetry.pid);
        subtree.merge_metrics(&fedsc_obs::metrics::snapshot());
        subtree.shift(offset);
        subtree.to_envelope(ctx)
    } else {
        Envelope {
            ctx,
            ..Envelope::default()
        }
    };
    if env.is_empty() {
        Ok(inner)
    } else {
        Ok(Bytes::from(env.wrap(inner.as_slice())))
    }
}

/// Awaits this endpoint's downlink for up to [`RoundPolicy::downlink_wait`]
/// and decodes its labels.
pub fn recv_labels<D: DeviceTransport>(link: &mut D, policy: &RoundPolicy) -> Result<Vec<u32>> {
    let reply = link
        .recv_downlink(policy.downlink_wait())
        .map_err(wire_err)?;
    let down =
        DownlinkMessage::decode(reply).ok_or(LinalgError::InvalidArgument("malformed downlink"))?;
    Ok(down.assignments)
}

/// Sends `labels` as child `child`'s downlink under the policy's retry
/// budget.
pub fn send_labels<S: ServerTransport>(
    link: &mut S,
    child: usize,
    labels: Vec<u32>,
    policy: &RoundPolicy,
) -> Result<()> {
    let reply = DownlinkMessage {
        assignments: labels,
    }
    .encode();
    with_retry(policy.max_retries, policy.retry_backoff, || {
        link.send_downlink(child, &reply)
    })
    .map_err(wire_err)
}

/// Runs the server's side of the round over `link`: collect uplinks until
/// every device reports or the policy deadline expires, pool in ascending
/// device order, [`root_assign`], answer each included device. In-band
/// telemetry lands in `fleet` when one is given (see [`collect_uplinks`]).
/// Returns the devices excluded as stragglers (empty on a clean run).
///
/// Fails if fewer than [`RoundPolicy::quorum`] devices report in time.
pub fn server_round<S: ServerTransport>(
    link: &mut S,
    z_count: usize,
    cfg: &FedScConfig,
    policy: &RoundPolicy,
    fleet: Option<&mut FleetCollector>,
) -> Result<Vec<usize>> {
    let _span = fedsc_obs::span("wire", "wire.server_round").field("devices", z_count);
    let payloads = collect_uplinks(link, z_count, policy.deadline, fleet)?;
    let excluded: Vec<usize> = payloads
        .iter()
        .enumerate()
        .filter_map(|(z, p)| p.is_none().then_some(z))
        .collect();
    if z_count - excluded.len() < policy.required(z_count) {
        return Err(LinalgError::InvalidArgument(
            "quorum not met before the round deadline",
        ));
    }

    let (included, counts, pooled) = pool_uplinks(payloads)?;
    let (_, labels) = root_assign(&pooled, &counts, cfg)?;

    let _broadcast_span =
        fedsc_obs::span("fedsc", "phase3.broadcast").field("devices", included.len());
    for (&z, labels) in included.iter().zip(labels) {
        let _downlink_span = fedsc_obs::span("wire", "wire.downlink").field("device", z);
        send_labels(link, z, labels, policy)?;
    }
    WIRE_SERVER_ROUNDS.inc();
    WIRE_STRAGGLERS.add(excluded.len() as u64);
    Ok(excluded)
}

/// Collects uplinks from `expected` children over `link` until all report
/// or `deadline` expires, decoding each payload. Slot `z` of the returned
/// vector holds child `z`'s message, `None` if it never arrived — quorum
/// policy is the *caller's* decision, so the hierarchical tree can treat a
/// failed aggregator as a straggler where the flat round treats it as
/// fatal. Stray child ids and duplicate deliveries are ignored.
///
/// Each payload's optional [`Envelope`] prefix is stripped before the
/// uplink decoder sees it, the per-uplink span records the sender's span
/// as its remote parent, and — when `fleet` is given — the envelope's
/// spans, metrics, and context are absorbed. A payload carrying the
/// envelope magic but failing to decode is an error (never fed to the
/// inner decoder); a payload without the magic passes through untouched.
pub fn collect_uplinks<S: ServerTransport>(
    link: &mut S,
    expected: usize,
    deadline: Duration,
    mut fleet: Option<&mut FleetCollector>,
) -> Result<Vec<Option<UplinkMessage>>> {
    let mut payloads: Vec<Option<UplinkMessage>> = (0..expected).map(|_| None).collect();
    let deadline = Deadline::after(deadline);
    let mut received = 0usize;
    // Server-side view of Phase 1: the window in which the children's local
    // clustering results arrive.
    let collect_span = fedsc_obs::span("fedsc", "phase1.collect").field("devices", expected);
    while received < expected {
        let remaining = deadline.remaining();
        if remaining.is_zero() {
            break;
        }
        match link.recv_uplink(remaining) {
            Ok((z, bytes)) => {
                // Stray device ids and duplicate deliveries (a retrying
                // link may deliver the same upload twice) are ignored.
                if z >= expected || payloads[z].is_some() {
                    continue;
                }
                let (env, inner_at) = Envelope::strip(bytes.as_slice())
                    .map_err(|_| LinalgError::InvalidArgument("malformed uplink envelope"))?;
                let mut uplink_span = fedsc_obs::span("wire", "wire.uplink").field("device", z);
                if let Some(env) = env {
                    if let Some(ctx) = env.ctx {
                        uplink_span = uplink_span.remote_parent(ctx.pid, ctx.parent_span);
                    }
                    if let Some(fleet) = fleet.as_deref_mut() {
                        fleet.absorb(&env, inner_at);
                    }
                }
                let inner = if inner_at == 0 {
                    bytes
                } else {
                    bytes.slice(inner_at..bytes.len())
                };
                let msg = UplinkMessage::decode(inner)
                    .ok_or(LinalgError::InvalidArgument("malformed uplink"))?;
                payloads[z] = Some(msg);
                received += 1;
            }
            Err(TransportError::Timeout(_)) => break,
            Err(e) => return Err(wire_err(e)),
        }
    }
    drop(collect_span.field("received", received));
    Ok(payloads)
}

/// Pools the children that reported, in ascending child order — the same
/// order `FedSc::run` pools in, which keeps clean runs bit-identical.
/// Returns the included child ids, each included child's sample count (in
/// that order), and the pooled sample matrix.
pub fn pool_uplinks(
    payloads: Vec<Option<UplinkMessage>>,
) -> Result<(Vec<usize>, Vec<usize>, Matrix)> {
    let mut included = Vec::new();
    let mut mats = Vec::new();
    let mut counts = Vec::new();
    for (z, p) in payloads.into_iter().enumerate() {
        if let Some(msg) = p {
            included.push(z);
            counts.push(msg.samples.cols());
            mats.push(msg.samples);
        }
    }
    let refs: Vec<&Matrix> = mats.iter().collect();
    let pooled = Matrix::hcat(&refs)?;
    Ok((included, counts, pooled))
}

/// Runs the Fed-SC round over `transport` with per-device threads and
/// encoded messages, under the given straggler `policy`.
///
/// Each device applies `cfg.dp` and the modelled `cfg.channel` before it
/// sends (see [`device_uplink`]); the link itself may also be unreliable
/// (see `fedsc_transport::fault`) and the policy decides how much
/// unreliability the round absorbs. Errors from any included device or
/// the server are propagated; excluded stragglers are reported, not fatal.
pub fn run_round<T: Transport>(
    fed: &FederatedDataset,
    cfg: &FedScConfig,
    transport: &T,
    policy: &RoundPolicy,
) -> Result<WireRunOutput> {
    let z_count = fed.devices.len();
    let _span = fedsc_obs::span("wire", "wire.run_round").field("devices", z_count);
    let (mut server_link, device_links) = transport.open(z_count).map_err(wire_err)?;
    // With tracing on, every uplink carries its causal context in-band
    // (spans/metrics stay local: one process, one ring). Telemetry off
    // attaches nothing, keeping the payloads byte-identical.
    let traced = fedsc_obs::trace::is_enabled();
    let mut fleet = FleetCollector::new();

    // Per-device results come back through a channel so the scope can end
    // cleanly even if the server fails.
    let (result_tx, result_rx) = crossbeam::channel::unbounded::<(usize, Result<Vec<usize>>)>();
    let mut server_out: Option<Result<(Vec<usize>, LinkStats)>> = None;
    let scope_result = crossbeam::thread::scope(|scope| {
        for (z, mut link) in device_links.into_iter().enumerate() {
            let result_tx = result_tx.clone();
            let device = &fed.devices[z];
            scope.spawn(move |_| {
                let telemetry = WireTelemetry {
                    ctx: traced.then_some(TraceContext {
                        run_id: cfg.seed,
                        round: 0,
                        tier: 0,
                        node: z as u64,
                        parent: 0,
                        pid: 1,
                        parent_span: 0,
                    }),
                    ..WireTelemetry::default()
                };
                let _ = result_tx.send((
                    z,
                    device_round(&device.data, z, cfg, &mut link, policy, &telemetry),
                ));
            });
        }
        drop(result_tx);

        let served = server_round(&mut server_link, z_count, cfg, policy, Some(&mut fleet))
            .map(|excluded| (excluded, server_link.stats()));
        // Dropping the server endpoint closes every link: excluded devices
        // still blocked in recv_downlink observe closure instead of
        // waiting out their timeout.
        drop(server_link);
        server_out = Some(served);
    });
    if let Err(payload) = scope_result {
        // A device or server thread panicked: re-raise the original panic
        // on the caller's thread.
        std::panic::resume_unwind(payload);
    }

    let (excluded, stats) =
        server_out.ok_or(LinalgError::InvalidArgument("server never ran"))??;
    let mut per_device: Vec<Option<Vec<usize>>> = (0..z_count).map(|_| None).collect();
    for (z, res) in result_rx.iter() {
        match res {
            Ok(v) => per_device[z] = Some(v),
            // An excluded straggler fails its round by construction (the
            // server never answers it); that is the policy working, not an
            // error. Any other device failure is real.
            Err(e) if !excluded.contains(&z) => return Err(e),
            Err(_) => {}
        }
    }
    let mut gathered: Vec<Vec<usize>> = Vec::with_capacity(z_count);
    for (z, p) in per_device.into_iter().enumerate() {
        match p {
            Some(v) => gathered.push(v),
            None if excluded.contains(&z) => {
                // Fallback for points the round never clustered.
                gathered.push(vec![0usize; fed.devices[z].data.cols()]);
            }
            None => return Err(LinalgError::InvalidArgument("a device sent no result")),
        }
    }
    Ok(WireRunOutput {
        predictions: fed.scatter_predictions(&gathered),
        uplink_bytes: stats.bytes_received,
        downlink_bytes: stats.bytes_sent,
        excluded,
        envelope_bytes: fleet.envelope_bytes,
    })
}

/// Runs the round over the lossless in-memory transport with the default
/// policy — the historical entry point; bit-identical to `FedSc::run`.
pub fn run_over_wire(fed: &FederatedDataset, cfg: &FedScConfig) -> Result<WireRunOutput> {
    run_round(fed, cfg, &InMemoryTransport, &RoundPolicy::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CentralBackend, FedScConfig};
    use crate::scheme::FedSc;
    use fedsc_federated::channel::ChannelConfig;
    use fedsc_federated::partition::{partition_dataset, Partition};
    use fedsc_federated::privacy::DpConfig;
    use fedsc_subspace::SubspaceModel;
    use fedsc_transport::{FaultConfig, FaultyInMemoryTransport, TcpTransport};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture(seed: u64) -> (FederatedDataset, FedScConfig) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = SubspaceModel::random(&mut rng, 20, 3, 3);
        let ds = model.sample_dataset(&mut rng, &[48, 48, 48], 0.0);
        let fed = partition_dataset(&ds, 12, Partition::NonIid { l_prime: 2 }, &mut rng);
        let cfg = FedScConfig::new(3, CentralBackend::Ssc);
        (fed, cfg)
    }

    /// The seed-1 fixture's config three ways: as is, with differential
    /// privacy on the uplink, and with a quantized, noisy channel.
    fn privacy_and_channel_configs(cfg: &FedScConfig) -> [(&'static str, FedScConfig); 3] {
        let mut dp = cfg.clone();
        dp.dp = Some(DpConfig::new(2.0, 1e-5));
        let mut channel = cfg.clone();
        channel.channel = ChannelConfig {
            bits_per_scalar: 16,
            noise_delta: 0.01,
        };
        [("default", cfg.clone()), ("dp", dp), ("channel", channel)]
    }

    #[test]
    fn wire_run_matches_in_process_run_exactly() {
        let (fed, base) = fixture(1);
        for (name, cfg) in privacy_and_channel_configs(&base) {
            let in_process = FedSc::new(cfg.clone())
                .run(&fed)
                .unwrap_or_else(|e| panic!("in-process {name} run on the seed-1 fixture: {e:?}"));
            let wire = run_over_wire(&fed, &cfg)
                .unwrap_or_else(|e| panic!("wire {name} round on the seed-1 fixture: {e:?}"));
            // Same seeds: the two execution shapes must agree bit for bit,
            // privacy noise and channel noise included.
            assert_eq!(wire.predictions, in_process.predictions, "{name} config");
            assert!(wire.excluded.is_empty(), "{name} config");
        }
    }

    #[test]
    fn out_of_range_downlink_label_fails_the_device() {
        let (fed, cfg) = fixture(11);
        let (mut server, mut devices) = InMemoryTransport
            .open(1)
            .expect("open an in-memory link for the hostile downlink");
        let mut link = devices.remove(0);
        let data = &fed.devices[0].data;
        let policy = RoundPolicy::default();
        let device = crossbeam::thread::scope(|scope| {
            let handle = scope.spawn(|_| {
                device_round(data, 0, &cfg, &mut link, &policy, &WireTelemetry::default())
            });
            // A CRC-valid, correctly sized downlink whose every label is L.
            let uplinks = collect_uplinks(&mut server, 1, Duration::from_secs(60), None)
                .expect("collect the device's uplink");
            let r = uplinks[0]
                .as_ref()
                .expect("the device uploaded")
                .samples
                .cols();
            let hostile = vec![cfg.num_clusters as u32; r];
            send_labels(&mut server, 0, hostile, &policy).expect("send the hostile downlink");
            handle.join().expect("the device thread must not panic")
        })
        .expect("hostile-downlink scope should not leak a panic");
        match device {
            Err(LinalgError::InvalidArgument(msg)) => {
                assert_eq!(msg, "downlink label out of range");
            }
            other => panic!("expected an out-of-range rejection, got {other:?}"),
        }
    }

    #[test]
    fn wire_byte_counts_match_payload_sizes() {
        let (fed, cfg) = fixture(2);
        let wire = run_over_wire(&fed, &cfg).expect("lossless wire round on the seed-2 fixture");
        let in_process = FedSc::new(cfg)
            .run(&fed)
            .expect("in-process FedSc run on the seed-2 fixture");
        let samples = in_process.samples.cols();
        // Uplink: per device 16-byte header + 8 bytes per entry.
        assert_eq!(wire.uplink_bytes, 16 * fed.devices.len() + 8 * 20 * samples);
        // Downlink: per device 8-byte header + 4 bytes per sample.
        assert_eq!(wire.downlink_bytes, 8 * fed.devices.len() + 4 * samples);
    }

    #[test]
    fn wire_run_clusters_correctly() {
        let (fed, cfg) = fixture(3);
        let wire = run_over_wire(&fed, &cfg).expect("lossless wire round on the seed-3 fixture");
        let acc = fedsc_clustering::clustering_accuracy(&fed.global_truth(), &wire.predictions);
        assert!(acc > 90.0, "accuracy {acc}");
    }

    #[test]
    fn faulty_link_below_retry_budget_still_matches_exactly() {
        let (fed, cfg) = fixture(1);
        let clean = run_over_wire(&fed, &cfg).expect("clean reference round (seed-1 fixture)");
        let transport = FaultyInMemoryTransport::new(FaultConfig {
            seed: 99,
            drop: 0.2,
            bit_flip: 0.1,
            truncate: 0.1,
            duplicate: 0.1,
            ..FaultConfig::default()
        });
        let policy = RoundPolicy {
            // drop+truncate+flip ≈ 0.4 per attempt; 25 retries make a
            // device-level failure astronomically unlikely.
            max_retries: 25,
            retry_backoff: Duration::ZERO,
            ..RoundPolicy::default()
        };
        let faulty = run_round(&fed, &cfg, &transport, &policy)
            .expect("faulty round (fault seed 99) should survive the 25-retry budget");
        // Retries and duplicates are invisible to the clustering: the
        // payload bytes that survive are the payload bytes that were sent.
        assert_eq!(faulty.predictions, clean.predictions);
        assert!(faulty.excluded.is_empty());
        // Framed accounting on the faulty link is at least the payload
        // accounting of the clean one (32-byte header per frame, plus
        // duplicates).
        assert!(faulty.uplink_bytes > clean.uplink_bytes);
    }

    #[test]
    fn tcp_round_matches_in_memory_round_exactly() {
        let (fed, cfg) = fixture(4);
        let clean = run_over_wire(&fed, &cfg).expect("clean in-memory round (seed-4 fixture)");
        let tcp = run_round(
            &fed,
            &cfg,
            &TcpTransport::loopback(),
            &RoundPolicy::default(),
        )
        .expect("TCP loopback round (seed-4 fixture)");
        assert_eq!(tcp.predictions, clean.predictions);
        assert!(tcp.excluded.is_empty());
        // TCP accounting includes handshakes and framing: strictly more
        // bytes than the payload-only in-memory accounting.
        assert!(tcp.uplink_bytes > clean.uplink_bytes);
        assert!(tcp.downlink_bytes > clean.downlink_bytes);
    }

    #[test]
    fn quorum_round_excludes_straggler_and_reports_it() {
        // Device 3 is a total straggler: it never speaks, and the quorum
        // Z-1 lets the round proceed without it.
        let (fed, cfg) = fixture(5);
        let policy = RoundPolicy {
            quorum: Some(fed.devices.len() - 1),
            deadline: Duration::from_millis(800),
            ..RoundPolicy::default()
        };
        let (server, results) = round_with_dead(&InMemoryTransport, &fed, &cfg, &policy, &[3]);
        let excluded =
            server.expect("server round should proceed at quorum Z-1 with one straggler");
        assert_eq!(excluded, vec![3]);
        // Every healthy device got a full labelling of its shard.
        for (z, r) in results.iter().enumerate() {
            if z != 3 {
                let r = r
                    .as_ref()
                    .unwrap_or_else(|| panic!("device {z} produced no result"))
                    .as_ref()
                    .unwrap_or_else(|e| panic!("healthy device {z} failed its round: {e:?}"));
                assert_eq!(r.len(), fed.devices[z].data.cols());
            }
        }
    }

    #[test]
    fn missing_quorum_fails_the_round() {
        let (fed, cfg) = fixture(6);
        let z_count = fed.devices.len();
        let (mut server_link, _device_links) = InMemoryTransport
            .open(z_count)
            .expect("open in-memory links for the no-quorum round");
        let policy = RoundPolicy {
            quorum: Some(z_count), // all required, none will come
            deadline: Duration::from_millis(50),
            ..RoundPolicy::default()
        };
        assert!(server_round(&mut server_link, z_count, &cfg, &policy, None).is_err());
    }

    #[test]
    fn enveloped_uplinks_strip_absorb_and_decode() {
        let (mut server, mut devices) = InMemoryTransport
            .open(2)
            .expect("open in-memory links for the envelope round-trip");
        let cols: [&[f64]; 2] = [&[1.0, 2.0], &[3.0, 4.0]];
        let msg = UplinkMessage {
            dim: 2,
            samples: Matrix::from_columns(&cols).expect("2x2 sample matrix"),
        };
        let inner = msg.encode();
        let ctx = TraceContext {
            run_id: 9,
            node: 0,
            pid: 1000,
            parent_span: 77,
            ..TraceContext::default()
        };
        let env = Envelope {
            ctx: Some(ctx),
            ..Envelope::default()
        };
        devices[0]
            .send_uplink(&Bytes::from(env.wrap(inner.as_slice())))
            .expect("enveloped uplink");
        devices[1].send_uplink(&inner).expect("plain uplink");

        let mut fleet = FleetCollector::new();
        let payloads = collect_uplinks(&mut server, 2, Duration::from_secs(5), Some(&mut fleet))
            .expect("collect the two uplinks");
        for (z, p) in payloads.iter().enumerate() {
            let m = p.as_ref().unwrap_or_else(|| panic!("uplink {z} missing"));
            assert_eq!(m.samples.col(0), &[1.0, 2.0], "uplink {z} col 0");
            assert_eq!(m.samples.col(1), &[3.0, 4.0], "uplink {z} col 1");
        }
        assert_eq!(fleet.contexts, vec![ctx]);
        assert_eq!(fleet.envelope_bytes, env.encoded_len());
    }

    #[test]
    fn magic_with_malformed_envelope_fails_the_collect() {
        let (mut server, mut devices) = InMemoryTransport
            .open(1)
            .expect("open in-memory link for the malformed envelope");
        // Envelope magic followed by an unsupported version: must error,
        // never reach the uplink decoder.
        let mut bogus = b"FSCE".to_vec();
        bogus.extend_from_slice(&[0u8; 20]);
        devices[0]
            .send_uplink(&Bytes::from(bogus))
            .expect("send the corrupt payload");
        assert!(collect_uplinks(&mut server, 1, Duration::from_secs(5), None).is_err());
    }

    #[test]
    fn ctx_envelopes_add_declared_bytes_without_perturbing_predictions() {
        let (fed, cfg) = fixture(10);
        let clean = run_over_wire(&fed, &cfg).expect("untraced reference round (seed-10 fixture)");
        assert_eq!(clean.envelope_bytes, 0, "telemetry off ships no envelopes");

        let z_count = fed.devices.len();
        let (mut server_link, mut device_links) = InMemoryTransport
            .open(z_count)
            .expect("open in-memory links for the ctx round");
        let policy = RoundPolicy::default();
        let mut fleet = FleetCollector::new();
        let mut gathered: Vec<Option<Vec<usize>>> = (0..z_count).map(|_| None).collect();
        crossbeam::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (z, mut link) in device_links.drain(..).enumerate() {
                let device = &fed.devices[z];
                let (cfg, policy) = (&cfg, &policy);
                handles.push((
                    z,
                    scope.spawn(move |_| {
                        let telemetry = WireTelemetry {
                            ctx: Some(TraceContext {
                                run_id: cfg.seed,
                                node: z as u64,
                                pid: 1,
                                ..TraceContext::default()
                            }),
                            ..WireTelemetry::default()
                        };
                        device_round(&device.data, z, cfg, &mut link, policy, &telemetry)
                    }),
                ));
            }
            let excluded = server_round(&mut server_link, z_count, &cfg, &policy, Some(&mut fleet))
                .expect("ctx round server side");
            assert!(excluded.is_empty());
            // The envelope overhead is exactly accounted: observed uplink
            // bytes are the untraced payload plus the absorbed envelopes.
            let stats = server_link.stats();
            assert_eq!(
                stats.bytes_received,
                clean.uplink_bytes + fleet.envelope_bytes
            );
            drop(server_link);
            for (z, h) in handles {
                let labels = h
                    .join()
                    .unwrap_or_else(|_| panic!("device {z} thread panicked"))
                    .unwrap_or_else(|e| panic!("device {z} round failed: {e:?}"));
                gathered[z] = Some(labels);
            }
        })
        .expect("ctx-round scope should not leak a panic");

        let per_ctx = Envelope {
            ctx: Some(TraceContext::default()),
            ..Envelope::default()
        }
        .encoded_len();
        assert_eq!(fleet.envelope_bytes, per_ctx * z_count);
        assert_eq!(fleet.contexts.len(), z_count);
        let gathered: Vec<Vec<usize>> = gathered
            .into_iter()
            .map(|v| v.expect("every device reported"))
            .collect();
        // The in-band telemetry never reaches the clustering: predictions
        // are bit-identical to the untraced round.
        assert_eq!(fed.scatter_predictions(&gathered), clean.predictions);
    }

    /// A device's label vector (or round error); `None` for dead devices.
    type DeviceResult = Option<Result<Vec<usize>>>;

    /// Runs one round over `transport` with the devices in `dead` never
    /// speaking: the server half runs on this thread, every healthy device
    /// on its own. Returns the server result (excluded stragglers on
    /// success) and each healthy device's round result.
    fn round_with_dead<T: Transport>(
        transport: &T,
        fed: &FederatedDataset,
        cfg: &FedScConfig,
        policy: &RoundPolicy,
        dead: &[usize],
    ) -> (Result<Vec<usize>>, Vec<DeviceResult>) {
        let z_count = fed.devices.len();
        let (mut server_link, mut device_links) = transport
            .open(z_count)
            .expect("open links for the straggler round");
        let mut results: Vec<DeviceResult> = (0..z_count).map(|_| None).collect();
        let mut server_out: Option<Result<Vec<usize>>> = None;
        crossbeam::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (z, mut link) in device_links.drain(..).enumerate() {
                if dead.contains(&z) {
                    continue; // killed before it ever speaks
                }
                let device = &fed.devices[z];
                let (cfg, policy) = (&cfg, &policy);
                handles.push((
                    z,
                    scope.spawn(move |_| {
                        device_round(
                            &device.data,
                            z,
                            cfg,
                            &mut link,
                            policy,
                            &WireTelemetry::default(),
                        )
                    }),
                ));
            }
            server_out = Some(server_round(&mut server_link, z_count, cfg, policy, None));
            // Closing the server links unblocks devices a failed round
            // never answered.
            drop(server_link);
            for (z, h) in handles {
                results[z] = Some(
                    h.join()
                        .unwrap_or_else(|_| panic!("device {z} thread panicked")),
                );
            }
        })
        .expect("straggler-round scope should not leak a panic");
        (
            server_out.expect("server round ran on this thread"),
            results,
        )
    }

    /// The two transports the RoundPolicy edge cases are asserted over: the
    /// payload-only reference link and the framed fault-injection link with
    /// a clean fault plan (framing and CRC active, no injected faults).
    fn edge_case_transports() -> (InMemoryTransport, FaultyInMemoryTransport) {
        (
            InMemoryTransport,
            FaultyInMemoryTransport::new(FaultConfig {
                seed: 7,
                ..FaultConfig::default()
            }),
        )
    }

    #[test]
    fn quorum_equal_to_z_with_one_straggler_fails() {
        // Edge case: quorum == Z leaves no straggler allowance at all, so a
        // single dead device must fail the round on every transport.
        let (fed, cfg) = fixture(7);
        let z_count = fed.devices.len();
        let policy = RoundPolicy {
            quorum: Some(z_count),
            deadline: Duration::from_millis(400),
            ..RoundPolicy::default()
        };
        let (mem, faulty) = edge_case_transports();
        let (mem_server, _) = round_with_dead(&mem, &fed, &cfg, &policy, &[5]);
        assert!(
            mem_server.is_err(),
            "in-memory round met quorum Z despite a dead device"
        );
        let (faulty_server, _) = round_with_dead(&faulty, &fed, &cfg, &policy, &[5]);
        assert!(
            faulty_server.is_err(),
            "faulty-link round met quorum Z despite a dead device"
        );
    }

    #[test]
    fn zero_deadline_fails_even_with_healthy_devices() {
        // Edge case: a zero collection deadline expires before the first
        // recv, so even an all-healthy fleet cannot reach quorum.
        let (fed, cfg) = fixture(8);
        let policy = RoundPolicy {
            quorum: Some(1),
            deadline: Duration::ZERO,
            ..RoundPolicy::default()
        };
        let (mem, faulty) = edge_case_transports();
        let (mem_server, _) = round_with_dead(&mem, &fed, &cfg, &policy, &[]);
        assert!(
            mem_server.is_err(),
            "in-memory round proceeded under a zero deadline"
        );
        let (faulty_server, _) = round_with_dead(&faulty, &fed, &cfg, &policy, &[]);
        assert!(
            faulty_server.is_err(),
            "faulty-link round proceeded under a zero deadline"
        );
    }

    #[test]
    fn quorum_met_on_last_permissible_uplink() {
        // Edge case: exactly quorum-many devices are alive, so the round
        // proceeds only if the final permissible uplink is counted — and
        // the dead devices are reported as the excluded stragglers.
        let (fed, cfg) = fixture(9);
        let z_count = fed.devices.len();
        let dead = [2usize, 9usize];
        let policy = RoundPolicy {
            quorum: Some(z_count - dead.len()),
            deadline: Duration::from_millis(1_500),
            ..RoundPolicy::default()
        };
        let (mem, faulty) = edge_case_transports();
        for (name, server_out, results) in [
            (
                "in-memory",
                round_with_dead(&mem, &fed, &cfg, &policy, &dead),
            ),
            (
                "faulty",
                round_with_dead(&faulty, &fed, &cfg, &policy, &dead),
            ),
        ]
        .map(|(n, (s, r))| (n, s, r))
        {
            let excluded = server_out
                .unwrap_or_else(|e| panic!("{name} round failed at exactly-met quorum: {e:?}"));
            assert_eq!(excluded, dead.to_vec(), "{name} excluded set");
            for (z, r) in results.iter().enumerate() {
                if dead.contains(&z) {
                    assert!(r.is_none(), "{name}: dead device {z} somehow ran");
                    continue;
                }
                let labels = r
                    .as_ref()
                    .unwrap_or_else(|| panic!("{name}: healthy device {z} produced no result"))
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{name}: healthy device {z} failed: {e:?}"));
                assert_eq!(
                    labels.len(),
                    fed.devices[z].data.cols(),
                    "{name} device {z}"
                );
            }
        }
    }
}
