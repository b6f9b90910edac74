//! The traced run: the same Fed-SC round, composed from the layers'
//! public calls with one span around each call.
//!
//! Algorithm 2 (`local_cluster_and_sample`), the central clustering
//! (`central_cluster` / `central_cluster_auto`) and both round entry points
//! (`FedSc::run`, `run_hier_round`) are single calls that hide their
//! stages, and the library's own tracing is not used here. So this module
//! re-assembles them from the stage functions they call, seeded exactly
//! as they are. The round's labels, traffic and solver counts must equal
//! the untraced round's bit for bit; the caller checks that, so a
//! composition that drifted from the library shows as a failed round.

use crate::span::{Tracer, ROOT};
use crate::workload::{Counters, Fingerprint, Instance};
use bytes::Bytes;
use fedsc::central::{central_cluster, central_cluster_auto};
use fedsc::local::LocalOutput;
use fedsc::{
    agg_seed, majority_relabel, pool_uplinks, BasisDim, CentralBackend, ClusterCountPolicy,
    FedScConfig, LocalBackend, SERVER_RNG_SALT,
};
use fedsc_clustering::spectral::{spectral_clustering, SpectralOptions};
use fedsc_federated::channel::{transmit_uplink, CommStats, DownlinkMessage, UplinkMessage};
use fedsc_graph::laplacian::{
    eigengap_cluster_count, laplacian_spectrum, relative_eigengap_cluster_count,
};
use fedsc_graph::AffinityGraph;
use fedsc_linalg::random::sample_on_subspace;
use fedsc_linalg::svd::truncated_svd;
use fedsc_linalg::{par, LinalgError, Matrix, Result};
use fedsc_subspace::{CandidateOptions, Ssc, SubspaceClusterer as _};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Name of the span that covers a whole traced round.
pub const ROUND: &str = "round";

/// A traced round's result: what must match the untraced round, plus the
/// layer counts read around the calls.
#[derive(Default)]
pub struct TracedRound {
    pub round: u32,
    pub fingerprint: Fingerprint,
    /// Counter deltas over the device stage (`local.*`, `pool.*`).
    pub local: Counters,
    /// Counter deltas summed over every central clustering.
    pub central: Counters,
    /// `sum_z r^(z)`.
    pub clusters: u64,
    /// Samples clustered centrally, summed over every clustering node.
    pub central_samples: u64,
}

fn invalid(msg: &'static str) -> LinalgError {
    LinalgError::InvalidArgument(msg)
}

/// Algorithm 2 on one device, one span per stage. Mirrors
/// `fedsc::local::local_cluster_and_sample` for the SSC local backend.
fn local_stages(
    tr: &Tracer,
    parent: u32,
    data: &Matrix,
    cfg: &FedScConfig,
    rng: &mut StdRng,
) -> Result<LocalOutput> {
    let (dim, n_points) = (data.rows(), data.cols());
    if n_points == 0 {
        return Ok(LocalOutput {
            local_labels: vec![],
            num_local_clusters: 0,
            samples: Matrix::zeros(dim, 0),
            sample_cluster: vec![],
            basis_dims: vec![],
        });
    }
    if cfg.local != LocalBackend::Ssc {
        return Err(invalid(
            "the traced composition covers the SSC local backend",
        ));
    }
    let graph = tr.span("local.affinity", parent, |_| {
        let mut lasso = cfg.lasso.clone();
        lasso.threads = cfg.kernel_threads.max(1);
        Ssc {
            alpha: cfg.ssc_alpha,
            lasso,
            normalize: true,
            candidates: Some(CandidateOptions {
                min_points: cfg.candidate_threshold,
                ..CandidateOptions::default()
            }),
        }
        .affinity(data)
    })?;
    let r = match cfg.cluster_count {
        ClusterCountPolicy::Eigengap { max, relative } => {
            tr.span("local.eigengap", parent, |_| -> Result<usize> {
                let spec = laplacian_spectrum(&graph)?;
                Ok(if relative {
                    relative_eigengap_cluster_count(&spec.eigenvalues, max)
                } else {
                    eigengap_cluster_count(&spec.eigenvalues, max)
                })
            })?
        }
        ClusterCountPolicy::Fixed(r) => r,
    }
    .clamp(1, n_points);
    let local_labels = tr.span("local.spectral", parent, |_| {
        spectral_clustering(&graph, &SpectralOptions::new(r), rng)
    })?;
    tr.span("local.basis_sample", parent, |_| {
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); r];
        for (i, &t) in local_labels.iter().enumerate() {
            members[t].push(i);
        }
        // Bases are rng-free, so estimating each one just before its
        // samples keeps the library's rng stream (all bases, then all
        // samples in partition order).
        let mut sample_cols: Vec<Vec<f64>> = Vec::new();
        let mut sample_cluster = Vec::new();
        let mut basis_dims = Vec::new();
        for (t, idx) in members.iter().enumerate() {
            if idx.is_empty() {
                basis_dims.push(0);
                continue;
            }
            let basis = estimate_basis(&data.select_columns(idx), cfg.basis_dim)?;
            basis_dims.push(basis.cols());
            for _ in 0..cfg.samples_per_cluster.max(1) {
                sample_cols.push(sample_on_subspace(rng, &basis));
                sample_cluster.push(t);
            }
        }
        let refs: Vec<&[f64]> = sample_cols.iter().map(|c| c.as_slice()).collect();
        let samples = Matrix::from_columns(&refs)?;
        let samples = if samples.cols() == 0 && samples.rows() == 0 {
            Matrix::zeros(dim, 0)
        } else {
            samples
        };
        Ok(LocalOutput {
            local_labels,
            num_local_clusters: r,
            samples,
            sample_cluster,
            basis_dims,
        })
    })
}

/// The library's per-partition basis estimate (paper footnote 3).
fn estimate_basis(cluster: &Matrix, policy: BasisDim) -> Result<Matrix> {
    let max_rank = cluster.rows().min(cluster.cols());
    let d = match policy {
        BasisDim::Fixed(d) => d.clamp(1, max_rank),
        BasisDim::Auto { rel_tol, max_dim } => {
            let probe = truncated_svd(cluster, max_rank.min(max_dim.max(1)))?;
            let smax = probe.s.first().copied().unwrap_or(0.0);
            if smax <= 0.0 {
                1
            } else {
                probe
                    .s
                    .iter()
                    .take_while(|&&s| s > rel_tol.max(f64::EPSILON) * smax)
                    .count()
                    .clamp(1, max_rank)
            }
        }
    };
    Ok(truncated_svd(cluster, d)?.u)
}

/// The central SSC the library builds for `candidate_threshold`.
fn central_ssc(cfg: &FedScConfig) -> Ssc {
    Ssc {
        candidates: Some(CandidateOptions {
            min_points: cfg.candidate_threshold,
            ..CandidateOptions::default()
        }),
        ..Ssc::default()
    }
}

/// Whether the central stages can be composed here: the dense SSC route.
/// Other routes run as one `central_*` call inside the `central` span.
fn dense_central(cfg: &FedScConfig, n: usize) -> bool {
    cfg.central == CentralBackend::Ssc && !central_ssc(cfg).uses_candidates(n)
}

fn central_affinity(
    tr: &Tracer,
    parent: u32,
    cfg: &FedScConfig,
    pooled: &Matrix,
) -> Result<AffinityGraph> {
    tr.span("central.affinity", parent, |_| {
        central_ssc(cfg).affinity(pooled)
    })
}

/// Phase 2 into `l` clusters, one span per stage. Mirrors
/// `fedsc::central::central_cluster`.
fn central_flat(
    tr: &Tracer,
    parent: u32,
    cfg: &FedScConfig,
    pooled: &Matrix,
    num_devices: usize,
    rng: &mut StdRng,
) -> Result<Vec<usize>> {
    let l = cfg.num_clusters;
    if !dense_central(cfg, pooled.cols()) {
        let out = central_cluster(
            pooled,
            l,
            num_devices,
            cfg.central,
            cfg.candidate_threshold,
            rng,
        )?;
        return Ok(out.assignments);
    }
    let graph = central_affinity(tr, parent, cfg, pooled)?;
    tr.span("central.spectral", parent, |_| {
        spectral_clustering(&graph, &SpectralOptions::new(l), rng)
    })
}

/// An aggregator's Phase 2 with an eigengap-estimated count of at most
/// `l_max`. Mirrors `fedsc::central::central_cluster_auto`.
fn central_auto(
    tr: &Tracer,
    parent: u32,
    cfg: &FedScConfig,
    pooled: &Matrix,
    l_max: usize,
    num_devices: usize,
    rng: &mut StdRng,
) -> Result<(Vec<usize>, usize)> {
    if !dense_central(cfg, pooled.cols()) {
        let (out, l) = central_cluster_auto(
            pooled,
            l_max,
            num_devices,
            cfg.central,
            cfg.candidate_threshold,
            rng,
        )?;
        return Ok((out.assignments, l));
    }
    let graph = central_affinity(tr, parent, cfg, pooled)?;
    let l = tr.span("central.eigengap", parent, |_| -> Result<usize> {
        let spec = laplacian_spectrum(&graph)?;
        let gap = relative_eigengap_cluster_count(&spec.eigenvalues, Some(l_max));
        let comps = graph
            .connected_components(1e-9)
            .iter()
            .max()
            .map_or(1, |&m| m + 1);
        Ok(gap.max(comps).clamp(1, l_max.min(pooled.cols()).max(1)))
    })?;
    let labels = tr.span("central.spectral", parent, |_| {
        spectral_clustering(&graph, &SpectralOptions::new(l), rng)
    })?;
    Ok((labels, l))
}

/// Per-round tallies shared by both compositions.
#[derive(Default)]
struct Tally {
    up_bytes: u64,
    down_bytes: u64,
    up_msgs: u64,
    down_msgs: u64,
    central: Counters,
    central_samples: u64,
}

fn encode_up(tr: &Tracer, parent: u32, samples: Matrix) -> Bytes {
    tr.span("wire.encode", parent, |_| {
        UplinkMessage {
            dim: samples.rows(),
            samples,
        }
        .encode()
    })
}

impl Tally {
    fn sent_up(&mut self, payload: &Bytes) {
        self.up_bytes += payload.len() as u64;
        self.up_msgs += 1;
    }

    fn encode_up(&mut self, tr: &Tracer, parent: u32, samples: Matrix) -> Bytes {
        let payload = encode_up(tr, parent, samples);
        self.sent_up(&payload);
        payload
    }

    fn encode_down(&mut self, tr: &Tracer, parent: u32, assignments: Vec<u32>) -> Bytes {
        let payload = tr.span("wire.encode", parent, |_| {
            DownlinkMessage { assignments }.encode()
        });
        self.down_bytes += payload.len() as u64;
        self.down_msgs += 1;
        payload
    }

    /// Runs one central clustering inside a `central` span, with its
    /// counter deltas.
    fn central<T>(
        &mut self,
        tr: &Tracer,
        parent: u32,
        samples: usize,
        f: impl FnOnce(u32) -> Result<T>,
    ) -> Result<T> {
        let before = Counters::read();
        let out = tr.span("central", parent, f);
        self.central.add(&Counters::read().since(&before));
        self.central_samples += samples as u64;
        out
    }
}

fn decode_up(tr: &Tracer, parent: u32, payload: Bytes) -> Result<UplinkMessage> {
    tr.span("wire.decode", parent, |_| UplinkMessage::decode(payload))
        .ok_or(invalid("malformed uplink"))
}

fn decode_down(tr: &Tracer, parent: u32, payload: Bytes) -> Result<DownlinkMessage> {
    tr.span("wire.decode", parent, |_| DownlinkMessage::decode(payload))
        .ok_or(invalid("malformed downlink"))
}

/// Phase 3 on one device: decode its downlink, vote, relabel.
fn finish_device(
    tr: &Tracer,
    parent: u32,
    out: &LocalOutput,
    downlink: Bytes,
    num_clusters: usize,
) -> Result<Vec<usize>> {
    let down = decode_down(tr, parent, downlink)?;
    if down.assignments.len() != out.sample_cluster.len() {
        return Err(invalid("downlink assignment count mismatch"));
    }
    let cluster_to_global = tr.span("phase3.relabel", parent, |_| {
        majority_relabel(
            &out.sample_cluster,
            out.num_local_clusters,
            &down.assignments,
            num_clusters,
        )
    });
    Ok(out
        .local_labels
        .iter()
        .map(|&t| cluster_to_global[t])
        .collect())
}

fn check_config(cfg: &FedScConfig) -> Result<()> {
    if cfg.dp.is_some() {
        return Err(invalid("the traced composition runs without DP"));
    }
    Ok(())
}

/// `FedSc::run`, composed: the device fan-out through `par_map_timed`,
/// the uplink codec, Phase 2, the downlink codec and the Phase 3 vote.
pub fn traced_flat(inst: &Instance, tr: &Tracer) -> Result<TracedRound> {
    let (fed, cfg) = (&inst.fed, &inst.cfg);
    check_config(cfg)?;
    let z_count = fed.devices.len();
    let round = tr.begin_round();
    let mut tally = Tally::default();
    let mut local = Counters::default();
    let before = Counters::read();
    let mut clusters = 0u64;
    let labels = tr.span(ROUND, ROOT, |rid| -> Result<Vec<usize>> {
        let c0 = Counters::read();
        let devices = tr.span("par", rid, |pid| {
            par::par_map_timed(z_count, cfg.threads, |z| {
                let (out, sent) = tr.span("local", pid, |lid| -> Result<_> {
                    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(z as u64));
                    let out = local_stages(tr, lid, &fed.devices[z].data, cfg, &mut rng)?;
                    let mut stats = CommStats::default();
                    let sent = transmit_uplink(&cfg.channel, &out.samples, &mut stats, &mut rng);
                    Ok((out, sent))
                })?;
                Ok((out, encode_up(tr, pid, sent)))
            })
        });
        local = Counters::read().since(&c0);

        let mut outputs = Vec::with_capacity(z_count);
        let mut received = Vec::with_capacity(z_count);
        for (res, _) in devices {
            let (out, payload): (LocalOutput, Bytes) = res?;
            tally.sent_up(&payload);
            received.push(Some(decode_up(tr, rid, payload)?));
            clusters += out.num_local_clusters as u64;
            outputs.push(out);
        }
        let (_, counts, pooled) = pool_uplinks(received)?;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ SERVER_RNG_SALT);
        let assignments = tally.central(tr, rid, pooled.cols(), |cid| {
            central_flat(tr, cid, cfg, &pooled, z_count, &mut rng)
        })?;

        let mut per_device = Vec::with_capacity(z_count);
        let mut offset = 0;
        for (out, r) in outputs.iter().zip(counts) {
            let mine: Vec<u32> = assignments[offset..offset + r]
                .iter()
                .map(|&a| a as u32)
                .collect();
            offset += r;
            let downlink = tally.encode_down(tr, rid, mine);
            per_device.push(finish_device(tr, rid, out, downlink, cfg.num_clusters)?);
        }
        Ok(fed.scatter_predictions(&per_device))
    })?;
    Ok(finish(round, labels, tally, local, before, clusters))
}

fn finish(
    round: u32,
    labels: Vec<usize>,
    tally: Tally,
    local: Counters,
    before: Counters,
    clusters: u64,
) -> TracedRound {
    let whole = Counters::read().since(&before);
    TracedRound {
        round,
        fingerprint: Fingerprint {
            labels,
            uplink_bytes: tally.up_bytes,
            downlink_bytes: tally.down_bytes,
            uplink_msgs: tally.up_msgs,
            downlink_msgs: tally.down_msgs,
            lasso_sweeps: whole.lasso_sweeps,
            spectral_matvecs: whole.spectral_matvecs,
        },
        local,
        central: tally.central,
        clusters,
        central_samples: tally.central_samples,
    }
}

/// What an aggregator keeps between the uplink and downlink sweeps.
struct AggState {
    counts: Vec<usize>,
    assignments: Vec<usize>,
    rep_slot: Vec<usize>,
    reps: usize,
}

/// `run_hier_round` over a lossless link, composed: devices in order,
/// then tier by tier each parent decodes and pools its children, clusters
/// (`central_cluster_auto` at aggregators, `central_cluster` at the root)
/// and forwards one representative per merged cluster; the downlink sweep
/// composes labels back down to the devices' Phase 3 vote. Like the
/// library's `run_hier_round`, it runs on the calling thread.
pub fn traced_hier(inst: &Instance, tr: &Tracer) -> Result<TracedRound> {
    let (fed, cfg) = (&inst.fed, &inst.cfg);
    check_config(cfg)?;
    let topo = inst
        .topo
        .as_ref()
        .ok_or(invalid("tree workload without topology"))?;
    let widths = topo.widths();
    let num_tiers = topo.num_tiers();
    let z_count = fed.devices.len();
    let round = tr.begin_round();
    let mut tally = Tally::default();
    let mut local = Counters::default();
    let mut clusters = 0u64;
    let before = Counters::read();
    let labels = tr.span(ROUND, ROOT, |rid| -> Result<Vec<usize>> {
        // Device stage: Algorithm 2 and the uplink, device by device.
        let c0 = Counters::read();
        let mut outputs = Vec::with_capacity(z_count);
        let mut payloads = Vec::with_capacity(z_count);
        for z in 0..z_count {
            let out = tr.span("local", rid, |lid| {
                let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(z as u64));
                local_stages(tr, lid, &fed.devices[z].data, cfg, &mut rng)
            })?;
            clusters += out.num_local_clusters as u64;
            payloads.push(tally.encode_up(tr, rid, out.samples.clone()));
            outputs.push(out);
        }
        local = Counters::read().since(&c0);

        // Uplink sweep, tier by tier.
        let mut aggs: Vec<Vec<AggState>> = Vec::with_capacity(num_tiers);
        let mut root: Option<(Vec<usize>, Vec<usize>)> = None;
        for t in 0..num_tiers {
            let is_root = t + 1 == num_tiers;
            let mut tier_aggs = Vec::new();
            let mut next = Vec::new();
            for p in 0..widths[t + 1] {
                let mut received = Vec::new();
                for c in topo.children_range(t, p) {
                    received.push(Some(decode_up(tr, rid, payloads[c].clone())?));
                }
                let (included, counts, pooled) = pool_uplinks(received)?;
                if pooled.cols() == 0 {
                    return Err(invalid("a tree node pooled no samples"));
                }
                if is_root {
                    let mut rng = StdRng::seed_from_u64(cfg.seed ^ SERVER_RNG_SALT);
                    let assignments = tally.central(tr, rid, pooled.cols(), |cid| {
                        central_flat(tr, cid, cfg, &pooled, included.len(), &mut rng)
                    })?;
                    root = Some((counts, assignments));
                    continue;
                }
                let mut rng = StdRng::seed_from_u64(agg_seed(cfg.seed, t, p));
                let l_max = cfg.num_clusters.min(pooled.cols());
                let (assignments, l_merge) = tally.central(tr, rid, pooled.cols(), |cid| {
                    central_auto(tr, cid, cfg, &pooled, l_max, included.len(), &mut rng)
                })?;
                let mut rep_slot = vec![usize::MAX; l_merge];
                let mut rep_cols: Vec<&[f64]> = Vec::with_capacity(l_merge);
                for (s, &m) in assignments.iter().enumerate() {
                    if rep_slot[m] == usize::MAX {
                        rep_slot[m] = rep_cols.len();
                        rep_cols.push(pooled.col(s));
                    }
                }
                let reps = Matrix::from_columns(&rep_cols)?;
                let n_reps = reps.cols();
                next.push(tally.encode_up(tr, rid, reps));
                tier_aggs.push(AggState {
                    counts,
                    assignments,
                    rep_slot,
                    reps: n_reps,
                });
            }
            aggs.push(tier_aggs);
            payloads = next;
        }

        // Downlink sweep: the root answers its children, each aggregator
        // composes child sample -> merged cluster -> global label.
        let (counts, assignments) = root.ok_or(invalid("tree without a root"))?;
        let mut downlinks = Vec::with_capacity(counts.len());
        let mut offset = 0;
        for r in counts {
            let mine = assignments[offset..offset + r]
                .iter()
                .map(|&a| a as u32)
                .collect();
            offset += r;
            downlinks.push(tally.encode_down(tr, rid, mine));
        }
        for t in (0..num_tiers - 1).rev() {
            let mut below = Vec::new();
            for (p, state) in aggs[t].iter().enumerate() {
                let down = decode_down(tr, rid, downlinks[p].clone())?;
                if down.assignments.len() != state.reps {
                    return Err(invalid(
                        "downlink assignment count mismatch at an aggregator",
                    ));
                }
                let mut offset = 0;
                for &r in &state.counts {
                    let mine = state.assignments[offset..offset + r]
                        .iter()
                        .map(|&m| down.assignments[state.rep_slot[m]])
                        .collect();
                    offset += r;
                    below.push(tally.encode_down(tr, rid, mine));
                }
            }
            downlinks = below;
        }

        let mut per_device = Vec::with_capacity(z_count);
        for (out, downlink) in outputs.iter().zip(downlinks) {
            per_device.push(finish_device(tr, rid, out, downlink, cfg.num_clusters)?);
        }
        Ok(fed.scatter_predictions(&per_device))
    })?;
    Ok(finish(round, labels, tally, local, before, clusters))
}
